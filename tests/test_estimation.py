"""Tests for likelihoods, model construction, the multi-stage fit, and scoring."""

import os

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.testing import assert_allclose

from oracles import (
    affine_time_major,
    block_toeplitz_oracle,
    copula_loglik_oracle,
    moment_corr,
    random_subprocess_corr,
    simulate_model_oracle,
    theta_to_corr,
    unpack_fixed,
)
from mcvar.closure import (
    CrossFixedBlock,
    DegenerateCrossPair,
    Partition,
    SubprocessCorr,
    _lag_stack,
    assemble_full_R,
    coefficient_block_zeros,
    solve_cross_pair,
    verify_closure,
)
import mcvar.closure as closure
import mcvar.estimation as estimation
import mcvar.optim as optim
from mcvar.estimation import (
    Model,
    ModelConfig,
    StageFit,
    construct_model,
    count_params,
    fit_model,
    fit_stage2,
    fit_stage3,
    fit_stage4,
    gaussian_var_loglik,
    lag_gram,
    loglik_full,
    portmanteau,
    simulate_model,
)
from mcvar.linalg import _block_toeplitz, is_positive_definite
from mcvar.margins import MarginFit, MarginSpec, fit_margin, pit_to_normal
from mcvar.varprocess import durbin_levinson, seeded_normals, simulate


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
# the unrestricted benchmark: the one-set config with the same margins and order
ONE_SET = ModelConfig(
    partition=Partition(sets=((0, 1),), d=2),
    labels=(1,),
    k=2,
    margin_families=("gaussian", "gaussian"),
)


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


@pytest.mark.parametrize("labels, k, message", [
    ((1.9, 2), 1, "model field 'labels' must be an integer, got 1.9"),
    ((True, 2), 1, "model field 'labels' must be an integer, got True"),
    ((1, 2), 1.5, "model field 'k' must be an integer, got 1.5"),
])
def test_model_config_refuses_a_fractional_or_bool_label_or_order(labels, k, message):
    # int() once fitted labels (1.9, 2) as (1, 2), and k = 1.5 ended in a TypeError
    part = Partition(sets=((0,), (1,)), d=2)
    with pytest.raises(ValueError, match=message):
        ModelConfig(partition=part, labels=labels, k=k, margin_families=("gaussian", "gaussian"))


@pytest.mark.parametrize("families", [("gaussian", "skewtt"), ("gaussian", ["skewt"]),
                                      ("gaussian", None)])
def test_model_config_refuses_a_margin_family_that_is_not_a_family_name(families):
    # a misspelt or nested name was once accepted, and refused only by fit_margin
    # after the data were read and the first margin fitted
    part = Partition(sets=((0,), (1,)), d=2)
    with pytest.raises(ValueError, match="model field 'margin_families' entry 1 must name a "
                                         "margin family"):
        ModelConfig(partition=part, labels=(1, 1), k=1, margin_families=families)


@pytest.mark.parametrize("field, value, message", [
    ("margins", None, "model field 'margins' must be a list, got None"),
    ("subprocess_corrs", "x", "model field 'subprocess_corrs' must be a list, got 'x'"),
    ("crosses", 7, "model field 'crosses' must be a list, got 7"),
])
def test_model_from_dict_refuses_a_count_field_that_is_not_a_list(field, value, message):
    with pytest.raises(ValueError, match=message):
        Model.from_dict(dict(TRUE_MODEL.to_dict(), **{field: value}))


def test_count_params_reference_values():
    # three scalar sub-processes with (skewt, gaussian, skewt) margins:
    # 10 margin parameters, 3 fixed cross blocks, plus k per-lag terms
    part = Partition(sets=((0,), (1,), (2,)), d=3)
    one_set = Partition(sets=((0, 1, 2),), d=3)
    families = ("skewt", "gaussian", "skewt")
    restricted = []
    unrestricted = []
    for k in range(1, 6):
        cfg = ModelConfig(partition=part, labels=(1, 1, 1), k=k, margin_families=families)
        restricted.append(count_params(cfg))
        unrestricted.append(count_params(
            ModelConfig(partition=one_set, labels=(1,), k=k, margin_families=families)))
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


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    d=st.integers(1, 3),
    k=st.integers(1, 3),
    extra=st.integers(-3, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_gaussian_var_loglik_property_matches_oracle(d, k, extra, seed):
    # T runs from 1 up to past k, so the T <= k head-only case is drawn too
    T = max(1, k + extra)
    rng = np.random.default_rng(seed)
    r = random_subprocess_corr(rng, d, k).toeplitz()
    z = rng.standard_normal((d, T))
    ref = copula_loglik_oracle(
        z, (MarginSpec("gaussian", (0.0, 1.0)),) * d, r, k, pit=lambda row, m: row
    )
    assert_allclose(gaussian_var_loglik(z, r, k), ref, rtol=0, atol=1e-8)
    assert_allclose(gaussian_var_loglik(lag_gram(z, k), r, k), ref, rtol=0, atol=1e-8)
    skew = r.copy()
    skew[0, -1] += 1e-3
    not_pd = r - 1.01 * np.linalg.eigvalsh(r)[-1] * np.eye(r.shape[0])
    for arg in (z, lag_gram(z, k)):
        with pytest.raises(ValueError, match="asymmetric"):
            gaussian_var_loglik(arg, skew, k)
        with pytest.raises(np.linalg.LinAlgError):
            gaussian_var_loglik(arg, not_pd, k)


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
    r = model.time_major_R()
    assert_allclose(r, r.T, atol=1e-12)
    report = verify_closure(r, model.partition, 2)
    assert report.all_pass
    assert tuple(s.holds for s in report.subs) == (2, 2)
    # fixed block preserved
    assert_allclose(model.crosses[0].block(0)[0, 0], 0.35, atol=1e-12)


def test_construct_model_builds_each_condition_matrix_once(monkeypatch):
    # three equal-label sub-processes, three pairs: one predictor recursion per
    # sub-process, not one per pair side
    calls = []
    recursion = closure.whittle_recursion

    def counted(*args):
        calls.append(args)
        return recursion(*args)

    rng = np.random.default_rng(4)
    dims = (1, 2, 1)
    subs = [random_subprocess_corr(rng, d, 2) for d in dims]
    part = Partition(sets=((0,), (1, 2), (3,)), d=4)
    fixed = [CrossFixedBlock((i, j), 0, 0.05 * rng.uniform(-1.0, 1.0, (dims[i], dims[j])))
             for i, j in ((0, 1), (0, 2), (1, 2))]
    monkeypatch.setattr(closure, "whittle_recursion", counted)
    model = construct_model(part, (1, 1, 1), 2, (MarginSpec("gaussian", (0.0, 1.0)),) * 4,
                            subs, fixed)
    assert len(calls) == 3
    for cross, fb in zip(model.crosses, fixed):
        i, j = fb.pair
        alone = solve_cross_pair(subs[i], subs[j], (1, 1), fb)
        assert all(np.array_equal(a, b) for a, b in zip(cross.blocks, alone.blocks))


def test_model_dict_roundtrip():
    doc = TRUE_MODEL.to_dict()
    back = Model.from_dict(doc)
    assert back.labels == TRUE_MODEL.labels
    assert back.partition.sets == TRUE_MODEL.partition.sets
    assert_allclose(back.time_major_R(), TRUE_MODEL.time_major_R(), atol=1e-15)
    assert back.margins == TRUE_MODEL.margins


@pytest.mark.parametrize("field, value", [
    ("k", 1.9), ("k", True), ("labels", [2.7, 2]), ("labels", [1, False]),
    ("partition", [[0.0], [1]]), ("crosses pair", [0, 1.5]),
])
def test_model_from_dict_refuses_a_bool_or_fraction(field, value):
    doc = TRUE_MODEL.to_dict()
    if field == "crosses pair":
        doc["crosses"][0]["pair"] = value
    else:
        doc[field] = value
    with pytest.raises(ValueError, match=repr(field)):
        Model.from_dict(doc)


@pytest.mark.parametrize("field", ["labels", "margins", "subprocess_corrs", "crosses"])
@pytest.mark.parametrize("longer", [False, True])
def test_model_from_dict_refuses_a_count_that_does_not_match_the_partition(field, longer):
    doc = TRUE_MODEL.to_dict()
    doc[field] = doc[field] + doc[field][:1] if longer else doc[field][:-1]
    with pytest.raises(ValueError, match="model field %r must hold one entry per" % field):
        Model.from_dict(doc)


@pytest.mark.parametrize("field, entry, key, value", [
    ("crosses", "crosses", "blocks", lambda b: b[:1]),
    ("crosses", "crosses", "blocks", lambda b: [[row + [0.0] for row in x] for x in b]),
    ("crosses", "crosses", "blocks", lambda b: [b[0]] + [[[np.inf]]] * (len(b) - 1)),
    ("subprocess_corrs", "subprocess_corrs", "blocks", lambda b: b + b[-1:]),
    ("subprocess_corrs", "subprocess_corrs", "blocks", lambda b: b[:1] + [[[np.nan]]] * (len(b) - 1)),
    ("crosses pair", "crosses", "pair", lambda p: p[::-1]),
    ("crosses pair", "crosses", "pair", lambda p: [0, 2]),
])
def test_model_from_dict_refuses_blocks_that_do_not_fit_the_model(field, entry, key, value):
    doc = TRUE_MODEL.to_dict()
    doc[entry][0][key] = value(doc[entry][0][key])
    with pytest.raises(ValueError, match="model field %r" % field):
        Model.from_dict(doc)


def test_model_from_dict_refuses_a_label_other_than_1_or_2():
    with pytest.raises(ValueError, match="model field 'labels' must hold 1 or 2"):
        Model.from_dict(dict(TRUE_MODEL.to_dict(), labels=[2, 3]))


@pytest.mark.parametrize("k", [0, -1])
def test_model_from_dict_refuses_an_order_below_1(k):
    with pytest.raises(ValueError, match="model field 'k' must be at least 1"):
        Model.from_dict(dict(TRUE_MODEL.to_dict(), k=k))


@pytest.mark.parametrize("name, key", [("subprocess_corrs", "blocks"), ("crosses", "pair"),
                                       ("crosses", "blocks"), ("cross_fixed", "pair"),
                                       ("cross_fixed", "lag"), ("cross_fixed", "value")])
def test_model_from_dict_names_an_entry_without_its_field(name, key):
    # a bare KeyError named neither the field nor the entry
    doc = TRUE_MODEL.to_dict()
    if name == "cross_fixed":  # the construct config of the same model
        doc["cross_fixed"] = [{"pair": [0, 1], "lag": 0, "value": [[0.35]]}]
        del doc["crosses"]
    del doc[name][-1][key]
    with pytest.raises(ValueError, match="model field %r entry %d has no %r"
                       % (name, len(doc[name]) - 1, key)):
        Model.from_dict(doc)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(sizes=st.lists(st.integers(1, 3), min_size=1, max_size=4), k=st.integers(1, 3),
       labels=st.lists(st.sampled_from([1, 2]), min_size=4, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_model_from_dict_reads_a_config_as_construct_model_bit_for_bit(sizes, k, labels, seed):
    # a construct config is a model document with one fixed block per pair in place
    # of the solved crosses; both read through the one reader
    rng = np.random.default_rng(seed)
    n, labels = len(sizes), tuple(labels[:len(sizes)])
    ends = np.cumsum(sizes)
    part = Partition(sets=tuple(tuple(range(e - s, e)) for s, e in zip(sizes, ends)),
                     d=int(ends[-1]))
    subs = tuple(random_subprocess_corr(rng, size, k) for size in sizes)
    margins = tuple(MarginSpec("gaussian", (float(m), 1.0)) for m in rng.normal(size=part.d))
    fixed = [CrossFixedBlock((i, j), closure.fixed_lag_for_labels((labels[i], labels[j]), k),
                             rng.uniform(-0.1, 0.1, (sizes[i], sizes[j])))
             for i in range(n) for j in range(i + 1, n)]
    doc = {"k": k, "partition": [list(s) for s in part.sets], "labels": list(labels),
           "margins": [m.to_dict() for m in margins],
           "subprocess_corrs": [{"blocks": [b.tolist() for b in sub.blocks]} for sub in subs],
           "cross_fixed": [{"pair": list(fb.pair), "lag": fb.lag, "value": fb.value.tolist()}
                           for fb in fixed]}
    try:
        want = construct_model(part, labels, k, margins, subs, fixed)
    except DegenerateCrossPair:
        with pytest.raises(DegenerateCrossPair):
            Model.from_dict(doc)
        return
    for got in (Model.from_dict(doc), Model.from_dict(want.to_dict())):
        assert (got.partition, got.labels, got.k, got.margins) == (part, labels, k, margins)
        assert np.array_equal(got.time_major_R(), want.time_major_R())
        assert [c.pair for c in got.crosses] == [c.pair for c in want.crosses]
        for c, w in zip(got.crosses, want.crosses):
            assert all(np.array_equal(a, b) for a, b in zip(c.blocks, w.blocks))


def test_model_var_is_closed_over_partition():
    # labels (1, 1): both latent sub-processes evolve autonomously, so the
    # implied VAR coefficient blocks across sub-processes vanish
    model = two_sub_model(GAUSS_MARGINS, labels=(1, 1))
    var = model.var()
    for p in var.phi:
        assert abs(p[0, 1]) < 1e-10
        assert abs(p[1, 0]) < 1e-10


def test_model_builds_one_lag_stack_for_R_and_var(monkeypatch):
    stacks = []

    def counted(*args):
        stacks.append(_lag_stack(*args))
        return stacks[-1]

    monkeypatch.setattr(closure, "_lag_stack", counted)
    monkeypatch.setattr(estimation, "_lag_stack", counted, raising=False)  # any second binding
    model = two_sub_model(GAUSS_MARGINS)
    var = model.var()
    model.time_major_R()
    assert len(stacks) == 1
    fresh = durbin_levinson(_lag_stack(model.partition, model.subs, model.crosses)[model.k:],
                            model.k)
    assert all(np.array_equal(a, b) for a, b in zip(var.phi, fresh.phi))
    assert np.array_equal(var.sigma, fresh.sigma)


def test_model_computes_R_and_var_once_as_read_only_arrays():
    model = two_sub_model(GAUSS_MARGINS, labels=(1, 1))
    r, var = model.time_major_R(), model.var()
    assert model.time_major_R() is r and model.var() is var
    assert np.array_equal(r, assemble_full_R(model.partition, model.subs, model.crosses))
    fresh = durbin_levinson(_lag_stack(model.partition, model.subs, model.crosses)[model.k:],
                            model.k)
    assert all(np.array_equal(a, b) for a, b in zip(var.phi, fresh.phi))
    assert np.array_equal(var.sigma, fresh.sigma)
    for a in (r, var.phi[1], var.sigma):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 0.5


def test_simulate_model_on_a_kept_var_repeats_its_bits():
    model = two_sub_model((MarginSpec("skewt", (1.0, 0.5, 3.0, 9.0)),
                           MarginSpec("gaussian", (0.0, 1.0))))
    first = simulate_model(model, 300, seed=5)
    assert np.array_equal(simulate_model(model, 300, seed=5), first)
    assert np.array_equal(simulate_model(Model.from_dict(model.to_dict()), 300, seed=5), first)


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
    sf = fit_stage2(estimation.latent_scores(z, margins), (0,), 2)
    assert sf.converged
    assert abs(sf.corr.block(1)[0, 0] - (-0.8)) < 0.05
    assert abs(sf.corr.block(2)[0, 0] - 0.6) < 0.07
    assert is_positive_definite(sf.corr.toeplitz())


@settings(max_examples=30, derandomize=True, deadline=None)
@given(d=st.integers(1, 4), k=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_stage2_scatter_matches_the_subprocess_toeplitz(d, k, seed):
    theta = np.random.default_rng(seed).uniform(-1.0, 1.0, estimation._sub_theta_len(d, k))
    stack, _ = estimation._sub_lags(d, k)(theta)
    r = _block_toeplitz(stack)
    corr = theta_to_corr(theta, d, k)
    assert np.array_equal(r, corr.toeplitz())
    assert np.array_equal(r, block_toeplitz_oracle(corr.block, k))


def test_sub_lags_is_built_once_and_shares_one_read_only_jacobian():
    d, k = 3, 2
    theta = np.random.default_rng(5).uniform(-1.0, 1.0, estimation._sub_theta_len(d, k))
    lags = estimation._sub_lags(d, k)
    assert estimation._sub_lags(d, k) is lags
    first, jac = lags(theta)
    second, jac_again = lags(theta)
    assert jac_again is jac and not jac.flags.writeable
    with pytest.raises(ValueError):
        jac[0, 0, 0, 0] = 2.0
    # each stack is new and writable: writing into one leaves the next call's as it was
    assert first is not second and first.flags.writeable
    first[k] = 0.0
    assert np.array_equal(lags(theta)[0], second) and second[k, 0, 0] == 1.0


def test_fit_model_recovers_a_bivariate_subprocess_with_stage4():
    # partition {0,1},{2}, both labels 1, k = 1: stage 2 fits a d = 2
    # sub-process on raw entries and stage 4 refines every parameter jointly
    part = Partition(sets=((0, 1), (2,)), d=3)
    margins = (MarginSpec("gaussian", (0.0, 0.1)), MarginSpec("gaussian", (0.5, 0.2)),
               MarginSpec("gaussian", (-0.2, 0.05)))
    subs = [SubprocessCorr(blocks=(np.array([[1.0, 0.3], [0.3, 1.0]]),
                                   np.array([[0.5, 0.1], [0.0, 0.4]]))),
            scalar_sub([1.0, 0.5])]
    truth = construct_model(part, (1, 1), 1, margins, subs,
                            [CrossFixedBlock((0, 1), 0, [[0.3], [0.2]])])
    config = ModelConfig(partition=part, labels=(1, 1), k=1,
                         margin_families=("gaussian",) * 3)
    fit = fit_model(simulate_model(truth, 2000, seed=0), config, stage4=True)

    def params(model):
        s0, s1 = model.subs
        return np.concatenate([[s0.block(0)[1, 0]], s0.block(1).ravel(), s1.block(1).ravel(),
                               model.crosses[0].block(0).ravel()])

    assert fit.converged
    assert fit.stage_logliks["stage4"] >= fit.stage_logliks["stage3"]
    assert_allclose(params(fit.model), params(truth), rtol=0, atol=0.1)
    assert verify_closure(fit.model.time_major_R(), part, 1).all_pass
    assert coefficient_block_zeros((1, 1), fit.model.var(), part)


def test_fit_stage3_recovers_cross_given_truth():
    st3 = fit_stage3(
        estimation.latent_scores(DATA, GAUSS_MARGINS),
        list(TRUE_MODEL.subs),
        (2, 2),
        TRUE_MODEL.partition,
        2,
    )
    assert st3.converged
    assert abs(st3.fixed_blocks[0].value[0, 0] - 0.35) < 0.06
    assert st3.crosses[0].pair == (0, 1)


def recorded_runs(monkeypatch):
    """The run records of every ``optim.minimize`` call of the dependence stages, in order."""
    runs = []

    def recorded(*args, **kwargs):
        runs.append(optim.minimize(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(estimation, "minimize", recorded)
    return runs


def test_each_dependence_stage_returns_the_record_of_its_run(monkeypatch):
    # stages 2-4 keep the very record that minimize returned, not a copied verdict
    runs = recorded_runs(monkeypatch)
    z = estimation.latent_scores(DATA, GAUSS_MARGINS)
    part, labels, k = TRUE_MODEL.partition, TRUE_MODEL.labels, TRUE_MODEL.k
    sub_fits = [fit_stage2(z, s, k) for s in part.sets]
    st3 = fit_stage3(z, [sf.corr for sf in sub_fits], labels, part, k)
    st4 = fit_stage4(z, part, labels, st3.subs, st3.fixed_blocks, k)
    fits = (*sub_fits, st3, st4)
    assert isinstance(st3, StageFit) and isinstance(st4, StageFit)
    assert len(runs) == len(fits) and all(f.run is run for f, run in zip(fits, runs))
    for f in fits:
        assert f.run.nfev > 0 and f.converged is f.run.success
    assert all(got is sf.corr for got, sf in zip(st3.subs, sub_fits))
    assert st4.loglik == st4[3] and st4.fixed_blocks is st4[1]


def scale_model():
    """Three multivariate equal-label sets, (5, 6, 8) at k = 3, drawn like the
    benchmark's seed-11 scale model, and its latent path at T = 2000:
    (truth, fixed blocks, z)."""
    rng = np.random.default_rng(11)
    sizes, labels, k = (5, 6, 8), (2, 2, 2), 3
    part = Partition(sets=tuple(tuple(s) for s in np.split(np.arange(19), np.cumsum(sizes)[:-1])),
                     d=19)
    subs = [random_subprocess_corr(rng, d, k, radius=0.5) for d in sizes]
    fixed = [CrossFixedBlock((i, j), 0, 0.02 * rng.uniform(-1.0, 1.0, (sizes[i], sizes[j])))
             for i in range(3) for j in range(i + 1, 3)]
    truth = construct_model(part, labels, k, (MarginSpec("gaussian", (0.0, 1.0)),) * 19, subs,
                            fixed)
    return truth, fixed, simulate(truth.var(), 2000, seed=11)


@pytest.mark.parametrize("cpus", [1, 4])
def test_simulate_model_of_the_19_variable_model_is_one_from_normal_per_row(monkeypatch, cpus):
    # time chunks of every row, on as many threads as the usable CPUs allow,
    # give the bits of one from_normal call per whole row; the skew-t rows
    # read their table, the others are affine
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    truth, fixed, _ = scale_model()
    margins = tuple(MarginSpec("skewt", (0.1 * v, 1.0, 3.0, 5.0)) if v % 2 == 0
                    else MarginSpec("gaussian", (0.0, 2.0)) for v in range(19))
    model = construct_model(truth.partition, truth.labels, truth.k, margins, truth.subs, fixed)
    x = simulate_model(model, 100_000, seed=3)
    assert x.shape == (19, 100_000) and x.flags.c_contiguous
    assert np.array_equal(x, simulate_model_oracle(model, 100_000, seed=3))


def test_fit_stage2_fits_the_5_variable_subprocess_of_the_19_variable_model():
    # 85 raw entries, fitted in one run from theta = 0
    truth, _, z = scale_model()
    indices, k = truth.partition.sets[0], truth.k
    sf = fit_stage2(z, indices, k)
    assert sf.converged
    zi = z[list(indices)]
    d = len(indices)
    alone = estimation._joint_model(Partition(sets=(tuple(range(d)),), d=d), (1,), k)
    nll = estimation._objective(lag_gram(zi, k), k, alone)
    value, score = nll(estimation._corr_to_theta(sf.corr))
    assert value == -sf.loglik
    assert np.max(np.abs(score)) < 1e-2
    assert sf.loglik >= gaussian_var_loglik(zi, truth.subs[0].toeplitz(), k)
    # the sample-moment start's value, and a run from it
    moment = estimation._corr_to_theta(moment_corr(zi, k))
    assert sf.loglik >= -nll(moment)[0]
    assert sf.loglik >= -optim.minimize(nll, moment, estimation._MAXITER, nll.curvature,
                                        refresh=True).fun - 1e-6


def test_fit_stage3_recovers_the_fixed_blocks_of_a_19_variable_model(monkeypatch):
    # 5*6 + 5*8 + 6*8 = 118 fixed-block entries, from the inverse information
    # in a few tens of evaluations (447 from a scaled identity)
    runs = recorded_runs(monkeypatch)
    truth, fixed, z = scale_model()
    part, labels, k, subs = truth.partition, truth.labels, truth.k, list(truth.subs)
    st3 = fit_stage3(z, subs, labels, part, k)
    assert st3.converged
    assert len(runs) == 1 and runs[0].nfev <= 40
    for got, want in zip(st3.fixed_blocks, fixed):
        assert_allclose(got.value, want.value, rtol=0, atol=0.1)
    fitted = Model(partition=part, labels=labels, k=k, margins=truth.margins, subs=tuple(subs),
                   crosses=st3.crosses)
    assert verify_closure(fitted.time_major_R(), part, k).all_pass
    assert st3.loglik >= gaussian_var_loglik(z, truth.time_major_R(), k)


@pytest.mark.parametrize("labels01", [(1, 1), (2, 2), (1, 2), (2, 1)])
@settings(max_examples=10, derandomize=True, deadline=None)
@given(
    dims=st.lists(st.integers(1, 3), min_size=2, max_size=3),
    k=st.integers(1, 3),
    label2=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stage3_affine_map_matches_exact_build(labels01, dims, k, label2, seed):
    # the first pair takes every label pattern; sets are scattered over 0..d-1
    rng = np.random.default_rng(seed)
    perm = rng.permutation(sum(dims))
    cuts = np.cumsum(dims)[:-1]
    part = Partition(sets=tuple(tuple(sorted(s)) for s in np.split(perm, cuts)), d=sum(dims))
    labels = (labels01 + (label2,))[:len(dims)]
    subs = [random_subprocess_corr(rng, di, k) for di in dims]
    model = estimation._joint_model(part, labels, k, held=subs)
    r0, basis = affine_time_major(part, labels, k, subs)
    for _ in range(3):
        theta = 0.3 * rng.uniform(-1.0, 1.0, size=len(basis))
        fixed = unpack_fixed(theta, part, labels, k)
        exact = closure.assemble_full_R(part, subs, closure._cross_solutions(subs, labels, fixed))
        gamma, jacobian = model(theta)
        r = _block_toeplitz(gamma)
        assert_allclose(r, r0 + np.tensordot(theta, basis, 1), rtol=0, atol=1e-12)
        assert_allclose(r, exact, rtol=0, atol=1e-12)
        # the block Toeplitz matrix of each Jacobian row is its basis matrix
        assert_allclose(_block_toeplitz(jacobian()), basis, rtol=0, atol=1e-12)


def test_dependence_stages_run_once_from_zeros(monkeypatch):
    # stage 2 at d = 1 and d > 1 and stage 3 each make one run from theta = 0
    starts = []

    def spy(nll, x0, *args, **kwargs):
        starts.append(np.array(x0))
        return optim.minimize(nll, x0, *args, **kwargs)

    monkeypatch.setattr(estimation, "minimize", spy)
    z = seeded_normals(3, (3, 300))
    subs = [fit_stage2(z, s, 1).corr for s in ((0, 1), (2,))]
    fit_stage3(z, subs, (1, 2), Partition(sets=((0, 1), (2,)), d=3), 1)
    # then the one 2 x 1 fixed block
    sizes = [estimation._sub_theta_len(2, 1), estimation._sub_theta_len(1, 1), 2]
    assert len(starts) == 3
    for got, n in zip(starts, sizes):
        assert got.ndim == 1
        assert np.array_equal(got, np.zeros(n))


def test_fit_stage3_on_a_one_set_partition_is_a_run_with_no_parameters():
    z = seeded_normals(3, (2, 300))
    sf = fit_stage2(z, (0, 1), 2)
    st3 = fit_stage3(z, [sf.corr], (1,), Partition(sets=((0, 1),), d=2), 2)
    assert st3.fixed_blocks == () and st3.crosses == ()
    assert st3.converged
    assert st3.loglik == sf.loglik


def test_objective_at_a_zero_length_theta_returns_a_zero_length_score():
    z, k = seeded_normals(3, (2, 300)), 1
    corr = random_subprocess_corr(np.random.default_rng(3), 2, k)
    held = estimation._joint_model(Partition(sets=((0, 1),), d=2), (1,), k, held=[corr])
    value, score = estimation._objective(lag_gram(z, k), k, held)(np.zeros(0))
    assert score.shape == (0,)
    assert -value == pytest.approx(gaussian_var_loglik(z, corr.toeplitz(), k), rel=1e-12)


@pytest.mark.parametrize("sets, labels", [(((0, 1, 2),), (1,)), (((0, 1), (2,)), (1, 2))])
@pytest.mark.parametrize("stage4", [False, True])
def test_fit_model_makes_one_run_per_dependence_stage(monkeypatch, sets, labels, stage4):
    # one run per sub-process, one for stage 3 (one-set partitions too) and one for stage 4
    runs = recorded_runs(monkeypatch)
    config = ModelConfig(partition=Partition(sets=sets, d=3), labels=labels, k=1,
                         margin_families=("gaussian",) * 3)
    fit_model(seeded_normals(5, (3, 300)), config, stage4=stage4)
    assert len(runs) == len(sets) + 1 + stage4


def test_fit_stage3_solves_the_closure_system_a_fixed_number_of_times(monkeypatch):
    # one joint-model evaluation for the affine map, whose lag stack at the optimum
    # gives the returned crosses, however many objective evaluations the optimizer
    # makes: one solve per pair and one predictor recursion per held sub-process
    calls = {"_solve_equal_labels": [], "whittle_recursion": []}

    def counted(name):
        original = getattr(closure, name)

        def call(*args):
            calls[name].append(args)
            return original(*args)

        monkeypatch.setattr(closure, name, call)

    for name in calls:
        counted(name)
    st3 = fit_stage3(estimation.latent_scores(DATA, GAUSS_MARGINS), list(TRUE_MODEL.subs),
                     (2, 2), TRUE_MODEL.partition, 2)
    n_pairs, n_subs = 1, 2
    assert st3.converged
    assert st3.run.nfev > 1
    assert len(calls["_solve_equal_labels"]) == n_pairs
    assert len(calls["whittle_recursion"]) == n_subs


def test_fit_stage3_degenerate_pair_has_no_positive_definite_point():
    # the closure system depends only on the sub-processes, so it fails at every point
    sub = scalar_sub([1.0, 0.0, 1.0 - 1e-12])
    with pytest.raises(np.linalg.LinAlgError, match="stage 3.*no positive definite point") as exc:
        fit_stage3(estimation.latent_scores(DATA, GAUSS_MARGINS), [sub, sub], (1, 1),
                   TRUE_MODEL.partition, 2)
    assert isinstance(exc.value.__cause__, DegenerateCrossPair)


def test_fit_stage3_near_the_positive_definite_boundary(monkeypatch):
    # the mixed-sign pair of `mcvar tables pdregion`: 0.10 is its largest positive
    # definite grid point, so the optimiser meets infeasible points, which score +inf
    part = Partition(sets=((0,), (1,)), d=2)
    margins = (MarginSpec("gaussian", (0.0, 1.0)),) * 2
    subs = [scalar_sub([1.0, 0.9]), scalar_sub([1.0, -0.9])]
    fixed = [CrossFixedBlock(pair=(0, 1), lag=0, value=[[0.10]])]
    x = simulate_model(construct_model(part, (2, 2), 1, margins, subs, fixed), 2000, seed=7)
    raised = []

    def recorded(kernel):
        def call(*args):
            try:
                return kernel(*args)
            except np.linalg.LinAlgError:
                raised.append(args)
                raise

        return call

    # stage 3 scores through the kernel's twin, which returns the score too
    for name in ("gaussian_var_loglik", "_gaussian_var_score"):
        monkeypatch.setattr(estimation, name, recorded(getattr(estimation, name)))
    st3 = fit_stage3(estimation.latent_scores(x, margins), subs, (2, 2), part, 1)
    assert np.isfinite(st3.loglik)
    assert abs(st3.fixed_blocks[0].value[0, 0] - 0.10) < 0.01
    fitted = Model(partition=part, labels=(2, 2), k=1, margins=margins, subs=tuple(subs),
                   crosses=st3.crosses)
    assert np.linalg.eigvalsh(fitted.time_major_R())[0] > 0.0
    assert raised


def test_fit_stage3_near_the_positive_definite_boundary_counts_its_infeasible_trials():
    # the fixture of the test above: the run's record counts the trial points at +inf
    part = Partition(sets=((0,), (1,)), d=2)
    margins = (MarginSpec("gaussian", (0.0, 1.0)),) * 2
    subs = [scalar_sub([1.0, 0.9]), scalar_sub([1.0, -0.9])]
    fixed = [CrossFixedBlock(pair=(0, 1), lag=0, value=[[0.10]])]
    x = simulate_model(construct_model(part, (2, 2), 1, margins, subs, fixed), 2000, seed=7)
    st3 = fit_stage3(estimation.latent_scores(x, margins), subs, (2, 2), part, 1)
    assert st3.converged and st3.run.ninf > 0


def mixed_model():
    """The benchmark's mixed_k1_stage4 truth: sets {0, 1} and {2}, labels (1, 1), k = 1."""
    part = Partition(sets=((0, 1), (2,)), d=3)
    margins = (MarginSpec("gaussian", (0.0, 0.1)), MarginSpec("gaussian", (0.5, 0.2)),
               MarginSpec("gaussian", (-0.2, 0.05)))
    subs = [SubprocessCorr(blocks=(np.array([[1.0, 0.3], [0.3, 1.0]]),
                                   np.array([[0.5, 0.1], [0.0, 0.4]]))),
            scalar_sub([1.0, 0.5])]
    fixed = [CrossFixedBlock(pair=(0, 1), lag=closure.fixed_lag_for_labels((1, 1), 1),
                             value=[[0.3], [0.2]])]
    return construct_model(part, (1, 1), 1, margins, subs, fixed)


@pytest.mark.parametrize("rep", range(5))
def test_stages_3_and_4_start_from_the_inverse_information(monkeypatch, rep):
    # the benchmark's seed-11 replicates: started from a scaled identity, stage 4
    # took 44.5 evaluations per fit over replicates 0-29 and stage 3 11.5
    truth = mixed_model()
    x = simulate_model(truth, 1000, 11 * 1_000_003 + rep)
    config = ModelConfig(partition=truth.partition, labels=truth.labels, k=1,
                         margin_families=("gaussian",) * 3)
    runs = recorded_runs(monkeypatch)
    fit = fit_model(x, config, stage4=True)
    assert fit.converged
    stage3, stage4 = runs[2:]  # after one stage-2 run per sub-process
    assert stage3.nfev <= 10 and stage4.nfev <= 12


def test_stage3_does_not_halve_steps_on_rounding_at_its_optimum(monkeypatch):
    # the benchmark's paper_k2 seed-11 replicate 12 reaches the optimum within a
    # few iterations; a line search there would halve its step on noise, about 45
    # evaluations, since the predicted decrease is below the value's rounding
    truth = two_sub_model((MarginSpec("skewt", (0.850, 0.791, 5.739, 9.344)),
                           MarginSpec("skewt", (-0.032, 0.172, 3.053, 2.738))))
    x = simulate_model(truth, 2000, 11 * 1_000_003 + 12)
    config = ModelConfig(partition=truth.partition, labels=(2, 2), k=2,
                         margin_families=("skewt", "skewt"))
    runs = recorded_runs(monkeypatch)
    fit = fit_model(x, config)
    assert fit.converged
    assert runs[-1].nfev <= 20


def paper_k2_replicate(rep):
    """The benchmark's paper_k2 replicate ``rep`` at seed 11 and its fit config."""
    truth = two_sub_model((MarginSpec("skewt", (0.850, 0.791, 5.739, 9.344)),
                           MarginSpec("skewt", (-0.032, 0.172, 3.053, 2.738))))
    config = ModelConfig(partition=truth.partition, labels=(2, 2), k=2,
                         margin_families=("skewt", "skewt"))
    return simulate_model(truth, 2000, 11 * 1_000_003 + rep), config


# the stage-3 values of these replicates before the restart rule, when the
# run took 12-14 evaluations to crawl back from its first step's overshoot
PAPER_K2_STAGE3 = (-1698.3939197339905, -1701.4411527320974, -1612.79292804621,
                   -1799.9795690375324, -1612.4523859710612)


@pytest.mark.parametrize("rep", range(5))
def test_stage3_restarts_from_the_information_when_its_secant_step_fails(monkeypatch, rep):
    # the first step lands next to the optimum; the BFGS step after it overshoots,
    # and the run steps again from the expected information there instead of
    # halving back; the refreshing margin and stage-2 runs never restart
    x, config = paper_k2_replicate(rep)
    runs = recorded_runs(monkeypatch)
    fit = fit_model(x, config)
    *stage2, stage3 = runs
    assert fit.converged and stage3.nrestart == 1 and stage3.nfev <= 7
    assert all(run.nrestart == 0 for run in stage2)
    assert all(mf.run.nrestart == 0 for mf in fit.margin_fits)
    assert abs(fit.stage_logliks["stage3"] - PAPER_K2_STAGE3[rep]) <= 1e-9


def test_stage3_counts_the_re_evaluation_of_its_restart(monkeypatch):
    # the curvature is taken only at the point evaluated last, so a restart
    # evaluates x again after the failed trial, and the record counts it
    x, config = paper_k2_replicate(0)
    margins = tuple(fit_margin(v, fam).spec for v, fam in zip(x, config.margin_families))
    z = estimation.latent_scores(x, margins)
    subs = [fit_stage2(z, s, 2).corr for s in config.partition.sets]
    points = []
    objective = estimation._objective

    def counted(*args):
        nll = objective(*args)

        def call(theta):
            points.append(np.array(theta))
            return nll(theta)

        call.curvature = nll.curvature
        return call

    monkeypatch.setattr(estimation, "_objective", counted)
    st3 = fit_stage3(z, subs, (2, 2), config.partition, 2)
    assert st3.run.nrestart == 1 and st3.run.nfev == len(points)
    again = [i for i in range(2, len(points)) if np.array_equal(points[i], points[i - 2])]
    assert len(again) == 1 and not np.array_equal(points[again[0] - 1], points[again[0]])


def test_scalar_stage2_run_ending_abnormal_at_its_optimum_is_converged(monkeypatch):
    # the draw of test_fit_model_property_over_random_partitions at seed 3049196815:
    # sub-process 1's L-BFGS-B run once ended in a failed line search (ABNORMAL)
    # after 38 evaluations with a max-abs score of 1.4e-5, at its optimum; its
    # Fisher scoring run must end there as converged too
    seed, d, labels, k = 3049196815, 2, (1, 1), 1
    rng = np.random.default_rng(seed)
    owner = rng.permutation(np.arange(d) % 2)
    part = Partition(sets=tuple(tuple(np.flatnonzero(owner == g).tolist()) for g in range(2)), d=d)
    assert part.sets == ((0,), (1,))
    subs = [random_subprocess_corr(rng, 1, k) for _ in part.sets]
    fixed = [CrossFixedBlock(pair=(0, 1), lag=closure.fixed_lag_for_labels(labels, k),
                             value=0.15 * rng.uniform(-1.0, 1.0, (1, 1)))]
    margins = (MarginSpec("gaussian", (0.0, 1.0)),) * d
    x = simulate_model(construct_model(part, labels, k, margins, subs, fixed), 600, seed)
    runs = recorded_runs(monkeypatch)
    fit = fit_model(x, ModelConfig(partition=part, labels=labels, k=k,
                                   margin_families=("gaussian",) * d))
    assert runs[1].message in optim.CONVERGED
    assert_allclose(fit.sub_fits[1].loglik, -708.9483197390211, rtol=0, atol=1e-9)
    assert fit.sub_fits[1].converged and fit.converged


def test_stage4_does_not_degrade_loglik():
    fit4 = fit_model(DATA, CONFIG, stage4=True)
    assert fit4.loglik >= FIT.loglik - 1e-9
    assert "stage4" in fit4.stage_logliks


def test_stage4_never_worse_than_its_exact_warm_start(monkeypatch):
    # a scalar lag-1 PACF of 0.9995, next to the edge of the stationary region:
    # a refinement cut short after one iteration still ends no worse than the
    # exact input, which a start clipped to 0.999 would not
    part = Partition(sets=((0,), (1,)), d=2)
    margins = (MarginSpec("gaussian", (0.0, 1.0)),) * 2
    subs = [scalar_sub([1.0, 0.9995]), scalar_sub([1.0, 0.5])]
    fixed = [CrossFixedBlock(pair=(0, 1), lag=0, value=[[0.02]])]
    model = construct_model(part, (1, 1), 1, margins, subs, fixed)
    x = simulate_model(model, 1000, seed=1)
    start = gaussian_var_loglik(x, model.time_major_R(), 1)
    monkeypatch.setattr(estimation, "_MAXITER_REFINE", 1)
    out_subs, out_fixed, crosses, ll, _ = fit_stage4(
        estimation.latent_scores(x, margins), part, (1, 1), subs, fixed, 1)
    assert ll >= start
    refit = construct_model(part, (1, 1), 1, margins, out_subs, out_fixed)
    assert_allclose(gaussian_var_loglik(x, refit.time_major_R(), 1), ll, rtol=0, atol=1e-9)


def test_stage4_builds_its_start_once(monkeypatch):
    # the start's evaluation, its information and the returned value share one
    # pair solve at the start's fixed blocks; the last solve builds the end point
    truth = mixed_model()
    z = estimation.latent_scores(simulate_model(truth, 1000, 11 * 1_000_003), truth.margins)
    part, labels, k = truth.partition, truth.labels, truth.k
    subs = [fit_stage2(z, s, k).corr for s in part.sets]
    fixed = list(fit_stage3(z, subs, labels, part, k).fixed_blocks)
    values = []

    def counted(solve):
        def call(stacks, labels, pairs, vals):
            values.append([np.array(v) for v in vals])
            return solve(stacks, labels, pairs, vals)

        return call

    for owner in (closure, estimation):
        monkeypatch.setattr(owner, "_solve_pairs", counted(owner._solve_pairs))
    out_fixed = fit_stage4(z, part, labels, subs, fixed, k)[1]
    at_start = [all(np.array_equal(v, fb.value) for v, fb in zip(vals, fixed)) for vals in values]
    assert sum(at_start) == 1 and at_start[0]
    assert not np.array_equal(out_fixed[0].value, fixed[0].value)


@pytest.mark.parametrize("stage4", [False, True])
def test_fit_model_computes_latent_scores_once(monkeypatch, stage4):
    calls = []

    def counted(x, margin):
        calls.append(margin)
        return pit_to_normal(x, margin)

    monkeypatch.setattr(estimation, "pit_to_normal", counted)
    fit_model(DATA, CONFIG, stage4=stage4)
    assert len(calls) == DATA.shape[0]


@pytest.mark.parametrize("stage, target", [
    ("stage 2", "gaussian_var_loglik"),
    ("stage 3", "_solve_pairs"),  # the pair loop of the one evaluation of the stage-3 map
])
def test_fit_model_raises_when_a_stage_finds_no_pd_point(monkeypatch, stage, target):
    real = getattr(estimation, target)

    def infeasible(*args):
        if target == "_solve_pairs" and not args[2]:  # stage 2's one-set model has no pairs
            return real(*args)
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(estimation, target, infeasible)
    if target == "gaussian_var_loglik":  # stage 2 scores through the kernel's twin
        monkeypatch.setattr(estimation, "_gaussian_var_score", infeasible)
    with pytest.raises(np.linalg.LinAlgError, match=stage + ".*no positive definite point"):
        fit_model(DATA, CONFIG)


def test_fit_model_converged_includes_the_margin_fits(monkeypatch):
    def unconverged(x, family):
        fit = fit_margin(x, family)
        return MarginFit(spec=fit.spec, loglik=fit.loglik, converged=False)

    assert FIT.converged
    monkeypatch.setattr(estimation, "fit_margin", unconverged)
    fit = fit_model(DATA, CONFIG)
    assert not fit.converged
    assert fit.loglik == FIT.loglik


def test_minimize_with_no_feasible_start_returns_inf_without_a_run():
    best = optim.minimize(lambda theta: (np.inf, np.zeros(3)), np.ones(3), estimation._MAXITER,
                          lambda x: np.eye(3))
    assert best.fun == np.inf and not best.success and best.nfev == 0
    assert_allclose(best.x, np.ones(3))


def correlation_nll(theta, n=100, c=0.95):
    """(nll, score) of a bivariate normal correlation r whose sample correlation is c,
    +inf outside |r| < 1; the estimate is r = c, next to the wall at r = 1."""
    r = theta[0]
    if abs(r) >= 1.0:
        return np.inf, np.zeros(1)
    v = 1.0 - r * r
    value = 0.5 * n * (np.log(v) + (2.0 - 2.0 * r * c) / v)
    score = 0.5 * n * (-2.0 * r / v + (-2.0 * c * v + 4.0 * r * (1.0 - r * c)) / (v * v))
    return value, np.array([score])


def test_minimize_halves_a_step_into_the_infeasible_region():
    # with a unit curvature the first step from 0.9 moves by the score, 251,
    # and twelve halvings reach |r| < 1
    best = optim.minimize(correlation_nll, np.array([0.9]), estimation._MAXITER,
                          lambda x: np.eye(1))
    assert best.ninf >= 4
    assert best.success and best.message in optim.CONVERGED
    assert np.isfinite(best.fun) and abs(best.x[0]) < 1.0
    assert_allclose(best.x, [0.95], atol=1e-6)
    assert best.fun < correlation_nll(np.array([0.9]))[0]


def barrier_nll(theta, c=3.0):
    """(nll, score) of -log(1 - x) - c x, +inf from the barrier x = 1 on; the curvature
    1/(1 - x)^2 rises steeply toward the barrier, and the optimum is x = 1 - 1/c."""
    x = theta[0]
    if x >= 1.0:
        return np.inf, np.zeros(1)
    return -np.log1p(-x) - c * x, np.array([1.0 / (1.0 - x) - c])


def test_minimize_restarts_from_the_curvature_when_a_secant_step_fails():
    # the first step from 0 overshoots into the barrier and is halved to 0.5; the
    # secant through 0 and 0.5 underestimates the curvature there, so the next
    # unit step fails again, and the run re-evaluates x and steps from its curvature
    evaluated = []

    def nll(theta):
        evaluated.append(float(theta[0]))
        return barrier_nll(theta)

    def curvature(x):
        assert float(x[0]) == evaluated[-1]
        return np.array([[1.0 / (1.0 - x[0]) ** 2]])

    best = optim.minimize(nll, np.zeros(1), estimation._MAXITER, curvature)
    assert best.nrestart >= 1 and best.nfev == len(evaluated)
    assert best.success and best.fun <= barrier_nll(np.zeros(1))[0]
    assert_allclose(best.x, [2.0 / 3.0], atol=1e-6)
    # a run that refreshes its curvature never restarts
    fisher = optim.minimize(barrier_nll, np.zeros(1), estimation._MAXITER, curvature=lambda x:
                            np.array([[1.0 / (1.0 - x[0]) ** 2]]), refresh=True)
    assert fisher.success and fisher.nrestart == 0


def test_minimize_without_a_run_has_no_restart():
    best = optim.minimize(lambda theta: (np.inf, np.zeros(1)), np.zeros(1), estimation._MAXITER,
                          lambda x: np.eye(1))
    assert best.nfev == 0 and best.nrestart == 0


@pytest.mark.parametrize("wall, message", [(False, optim.FLOOR), (True, optim.WALL)])
def test_minimize_step_halved_to_its_floor(wall, message):
    # a score that claims descent along +theta where the value only rises, or is +inf:
    # the first counts as converged (no lower value exists near x), the second does not
    def nll(theta):
        if wall and theta[0] > 0.0:
            return np.inf, np.zeros(1)
        return float(theta[0] ** 2), np.array([-1.0])

    best = optim.minimize(nll, np.zeros(1), estimation._MAXITER, lambda x: np.eye(1))
    assert best.message == message and best.success == (not wall)
    assert best.nit == 0 and best.fun == 0.0 and best.ninf == (best.nfev - 1 if wall else 0)


def test_minimize_starts_from_a_given_inverse_hessian():
    # on a quadratic the exact inverse Hessian takes one full step to the optimum,
    # where the identity needs several
    a = np.array([[100.0, 3.0], [3.0, 0.5]])
    x_opt = np.array([1.0, -2.0])

    def nll(theta):
        r = theta - x_opt
        return 0.5 * float(r @ a @ r), a @ r

    seen = []

    def curvature(x):
        seen.append(x)
        return a

    best = optim.minimize(nll, np.zeros(2), estimation._MAXITER, curvature=curvature)
    assert len(seen) == 1 and np.array_equal(seen[0], np.zeros(2))
    assert best.success and best.nit == 1 and best.nfev == 2
    assert_allclose(best.x, x_opt, atol=1e-12)
    assert optim.minimize(nll, np.zeros(2), estimation._MAXITER, lambda x: np.eye(2)).nfev > 2


def test_minimize_refreshing_the_curvature_is_fisher_scoring():
    # with the curvature refreshed at every accepted iterate, each step is a
    # Newton step on it: one step on a quadratic, and the curvature is asked
    # for only at the point the objective evaluated last
    a = np.array([[100.0, 3.0], [3.0, 0.5]])
    x_opt = np.array([1.0, -2.0])
    evaluated, seen = [], []

    def quadratic(theta):
        evaluated.append(theta)
        r = theta - x_opt
        return 0.5 * float(r @ a @ r), a @ r

    def curvature(x):
        assert x is evaluated[-1]
        seen.append(x)
        return a

    best = optim.minimize(quadratic, np.zeros(2), estimation._MAXITER, curvature=curvature,
                          refresh=True)
    assert best.success and best.nit == 1 and best.nfev <= 2 and len(seen) == 1
    assert_allclose(best.x, x_opt, atol=1e-12)

    # sum(exp(x) - 2x): a Newton run converges quadratically to x = log 2
    evaluated, seen = [], []

    def convex(theta):
        evaluated.append(theta)
        return float(np.sum(np.exp(theta) - 2.0 * theta)), np.exp(theta) - 2.0

    def hessian(x):
        assert x is evaluated[-1]
        seen.append(x)
        return np.diag(np.exp(x))

    best = optim.minimize(convex, np.array([2.0, -1.0]), estimation._MAXITER,
                          curvature=hessian, refresh=True)
    assert best.success and best.nit <= 6 and len(seen) == best.nit
    assert_allclose(best.x, np.log(2.0), atol=1e-6)


def test_objective_curvature_is_taken_only_at_the_point_evaluated_last():
    # the curvature reuses that evaluation's Jacobian and kernel factor, so
    # anywhere else it raises rather than pair them with another point
    gram = lag_gram(np.random.default_rng(0).standard_normal((1, 50)), 1)
    nll = estimation._objective(gram, 1, estimation._joint_model(Partition(sets=((0,),), d=1),
                                                                 (1,), 1))
    with pytest.raises(ValueError):
        nll.curvature(np.zeros(1))
    assert np.isfinite(nll(np.zeros(1))[0])
    assert np.all(np.isfinite(nll.curvature(np.zeros(1))))
    with pytest.raises(ValueError):
        nll.curvature(np.full(1, 0.1))


def test_minimize_stops_when_the_predicted_decrease_is_below_rounding():
    # a score above the stop's 1e-5 whose predicted decrease -g'Hg is 1e-18 of the value:
    # no step is tried, so no evaluation is spent halving on noise
    def nll(theta):
        return 1e6 + 1e-6 * float(theta @ theta), np.full(2, 3e-5)

    best = optim.minimize(nll, np.zeros(2), estimation._MAXITER,
                          curvature=lambda x: 1e9 * np.eye(2))
    assert best.message == optim.DECREASE and best.success
    assert best.nfev == 1 and best.nit == 0


@pytest.mark.parametrize("box", [None, ((-0.9,), (0.9,))])
def test_minimize_run_record(box):
    # a run inside a box and one without fill the same fields, and a rerun
    # repeats them exactly; the optimum r = 0.95 lies outside the box, so the
    # run inside it ends exactly on the bound, which it never crosses
    x0 = np.array([0.0])
    best = optim.minimize(correlation_nll, x0, estimation._MAXITER, lambda x: np.eye(1), box=box)
    assert best.nfev > 0 and best.nit > 0 and best.ninf >= 0
    assert best.success and isinstance(best.message, str)
    again = optim.minimize(correlation_nll, x0, estimation._MAXITER, lambda x: np.eye(1), box=box)
    fields = ("fun", "success", "message", "nfev", "nit", "ninf")
    assert [getattr(again, f) for f in fields] == [getattr(best, f) for f in fields]
    assert np.array_equal(again.x, best.x)
    short = optim.minimize(correlation_nll, x0, 1, lambda x: np.eye(1), box=box)
    assert short.nit <= 1 and short.nfev > 0
    if box is None:
        assert not short.success and short.message == optim.MAXITER
    else:
        assert best.x[0] == 0.9 and best.ninf == 0


@pytest.mark.parametrize("refresh", [False, True])
def test_minimize_with_no_finite_bound_runs_as_inside_a_far_box(refresh):
    # a run with no finite bound skips the box bookkeeping, a box too far
    # away to bind keeps it, and the two runs agree bit for bit
    a = np.array([[3.0, 1.0], [1.0, 2.0]])

    def nll(theta):
        e = np.exp(a @ theta)
        return float(e.sum() - 2.0 * theta.sum()), a.T @ e - 2.0

    def hessian(x):
        return a.T @ (np.exp(a @ x)[:, None] * a)

    far = (np.full(2, -1e300), np.full(2, 1e300))
    runs = [optim.minimize(nll, np.array([1.0, -1.0]), estimation._MAXITER, hessian, box=box,
                           refresh=refresh) for box in (None, far)]
    assert runs[0].success and runs[0].nit > 2
    fields = ("fun", "success", "message", "nfev", "nit", "ninf")
    assert [getattr(runs[1], f) for f in fields] == [getattr(runs[0], f) for f in fields]
    assert np.array_equal(runs[1].x, runs[0].x)


def test_unrestricted_fit_nests_more_parameters():
    un = fit_model(DATA, ONE_SET)
    assert un.n_params == count_params(ONE_SET) == 4 + 1 + 8
    assert un.aic == pytest.approx(2 * un.n_params - 2 * un.loglik)
    # more parameters should not fit (noticeably) worse
    assert un.loglik > FIT.loglik - 3.0


def test_one_set_fit_model_is_the_unrestricted_benchmark():
    fm = fit_model(DATA, ONE_SET)
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


def test_portmanteau_pvalue_is_the_chi_square_survival_function():
    # scipy.special.chdtrc(df, q) in place of scipy.stats.chi2.sf(q, df), which
    # loads scipy.stats; the oracle is chi2.sf on a grid of both arguments
    from scipy.special import chdtrc
    from scipy.stats import chi2

    q = np.array([0.0, 1e-3, 0.5, 3.0, 12.0, 40.0, 150.0, 600.0])
    for df in (1, 2, 4, 7, 16, 36, 100):
        assert_allclose(chdtrc(df, q), chi2.sf(q, df), rtol=1e-12, atol=1e-300)
    res = portmanteau(seeded_normals(31, (3, 300)), 5, 1)
    assert_allclose(res.pvalue, chi2.sf(res.statistic, res.df), rtol=1e-12)


def test_portmanteau_rejects_bad_lags():
    e = seeded_normals(1, (2, 100))
    with pytest.raises(ValueError):
        portmanteau(e, 2, 2)
    with pytest.raises(ValueError):
        portmanteau(e, 100, 0)


@settings(max_examples=12, derandomize=True, deadline=None)
@given(
    d=st.integers(2, 3),
    n=st.integers(2, 3),
    labels=st.tuples(*[st.sampled_from((1, 2))] * 3),
    k=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_model_property_over_random_partitions(d, n, labels, k, seed):
    # 2-3 sets scattered over 0..d-1; stage 4 runs on the k = 1 draws, where it is cheap
    n = min(n, d)
    rng = np.random.default_rng(seed)
    owner = rng.permutation(np.arange(d) % n)
    part = Partition(sets=tuple(tuple(np.flatnonzero(owner == g).tolist()) for g in range(n)), d=d)
    labels = labels[:n]
    subs = [random_subprocess_corr(rng, len(s), k) for s in part.sets]
    fixed = [
        CrossFixedBlock(pair=(i, j), lag=closure.fixed_lag_for_labels((labels[i], labels[j]), k),
                        value=0.15 * rng.uniform(-1.0, 1.0, (len(part.sets[i]), len(part.sets[j]))))
        for i in range(n) for j in range(i + 1, n)
    ]
    margins = tuple(MarginSpec("gaussian", (0.0, 1.0)) for _ in range(d))
    try:
        truth = construct_model(part, labels, k, margins, subs, fixed)
        truth_pd = is_positive_definite(truth.time_major_R())
    except DegenerateCrossPair:
        truth_pd = False
    assume(truth_pd)
    x = simulate_model(truth, 600, seed)
    config = ModelConfig(partition=part, labels=labels, k=k, margin_families=("gaussian",) * d)
    fit = fit_model(x, config, stage4=k == 1)
    r = fit.model.time_major_R()
    assert np.isfinite(fit.loglik)
    assert fit.loglik == loglik_full(x, fit.model.margins, r, k)
    assert is_positive_definite(r)
    assert verify_closure(r, part, k).all_pass
    if k == 1:
        assert fit.stage_logliks["stage4"] >= fit.stage_logliks["stage3"]


@st.composite
def margin_closed_truths(draw):
    """A margin-closed model of 1-3 scattered sets of 1-2 variables at k = 1-3 with
    random labels, fixed blocks c U(-1, 1) with c in {0.05, 0.2, 0.4}, and Gaussian
    or skew-t margins; None where the draw is degenerate or not positive definite."""
    k = draw(st.integers(1, 3))
    dims = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    labels = tuple(draw(st.lists(st.sampled_from((1, 2)), min_size=len(dims),
                                 max_size=len(dims))))
    c = draw(st.sampled_from((0.05, 0.2, 0.4)))
    family = draw(st.sampled_from(("gaussian", "skewt")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    owner = rng.permutation(np.repeat(np.arange(len(dims)), dims))
    part = Partition(sets=tuple(tuple(np.flatnonzero(owner == g).tolist())
                                for g in range(len(dims))), d=len(owner))
    subs = [random_subprocess_corr(rng, di, k) for di in dims]
    fixed = [CrossFixedBlock(pair=(i, j),
                             lag=closure.fixed_lag_for_labels((labels[i], labels[j]), k),
                             value=c * rng.uniform(-1.0, 1.0, (dims[i], dims[j])))
             for i in range(len(dims)) for j in range(i + 1, len(dims))]
    margins = tuple(MarginSpec("gaussian", (rng.normal(), rng.uniform(0.2, 2.0)))
                    if family == "gaussian" else
                    MarginSpec("skewt", (rng.normal(), rng.uniform(0.2, 2.0),
                                         *rng.uniform(2.0, 8.0, 2)))
                    for _ in range(len(owner)))
    try:
        truth = construct_model(part, labels, k, margins, subs, fixed)
    except DegenerateCrossPair:
        return None
    return truth if is_positive_definite(truth.time_major_R()) else None


PAPER_K2_TRUTH = two_sub_model((MarginSpec("skewt", (0.850, 0.791, 5.739, 9.344)),
                                MarginSpec("skewt", (-0.032, 0.172, 3.053, 2.738))))


# budget: 5 s for the draws, the example and their reruns (1.6-2.5 s on a 2-core Xeon VM)
@settings(max_examples=40, derandomize=True, deadline=None)
@given(truth=margin_closed_truths(), T=st.sampled_from((60, 300)), stage4=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
# the benchmark's paper_k2 replicate 2 at seed 11: re-solving its crosses at the optimum
# moves the model's latent value 5.9e-12 nats off the value its stage scored
@example(truth=PAPER_K2_TRUTH, T=2000, stage4=False, seed=11 * 1_000_003 + 2)
def test_a_fit_returns_the_model_its_last_run_scored(truth, T, stage4, seed):
    assume(truth is not None)
    part, labels, k = truth.partition, truth.labels, truth.k
    x = simulate_model(truth, T, seed)
    config = ModelConfig(partition=part, labels=labels, k=k,
                         margin_families=tuple(m.family for m in truth.margins))
    try:
        fit = fit_model(x, config, stage4=stage4)
    except np.linalg.LinAlgError:  # the refusal of a fit that finds no positive definite point
        return
    r = fit.model.time_major_R()
    assert is_positive_definite(r)
    z = estimation.latent_scores(x, fit.model.margins)
    last = fit.stage_logliks["stage4" if stage4 else "stage3"]
    assert gaussian_var_loglik(z, r, k) == last
    assert fit.loglik == last + estimation._margin_correction(x, fit.model.margins, z)
    assert_allclose(loglik_full(x, fit.model.margins, r, k), fit.loglik, rtol=1e-8)
    if stage4:
        assert fit.stage_logliks["stage4"] >= fit.stage_logliks["stage3"]
    assert verify_closure(r, part, k).all_pass
    # the crosses of the scored lag stack are those the exact closure solve gives
    fixed = [CrossFixedBlock(pair=c.pair, lag=lag, value=c.block(lag)) for c in fit.model.crosses
             for lag in [closure.fixed_lag_for_labels((labels[c.pair[0]], labels[c.pair[1]]), k)]]
    exact = closure._cross_solutions(fit.model.subs, labels, fixed)
    for got, want in zip(fit.model.crosses, exact):
        assert_allclose(np.stack(got.blocks), np.stack(want.blocks), rtol=0, atol=1e-12)
    again = fit_model(x, config, stage4=stage4)
    assert (again.loglik, again.stage_logliks) == (fit.loglik, fit.stage_logliks)
    assert np.array_equal(again.model.time_major_R(), r)
