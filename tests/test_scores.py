"""Closed-form scores by central differences, and the scored fits against
the derivative-free Nelder-Mead oracles they replaced."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy import optimize
from scipy.special import ndtr

from oracles import (
    durbin_levinson_scalar,
    fit_margin_nelder_mead,
    information_oracle,
    random_subprocess_corr,
    scalar_nll_mp,
    scalar_score_mp,
    scalar_stage2_nelder_mead,
    stage2_nelder_mead,
    stage3_nelder_mead,
    stage4_nelder_mead,
)
import mcvar.estimation as estimation
from mcvar.closure import (
    CrossFixedBlock,
    DegenerateCrossPair,
    Partition,
    SubprocessCorr,
    _cross_solutions,
    assemble_full_R,
    fixed_lag_for_labels,
)
from mcvar.estimation import (
    ModelConfig,
    construct_model,
    fit_model,
    fit_stage2,
    fit_stage3,
    fit_stage4,
    gaussian_var_loglik,
    lag_gram,
    latent_scores,
    simulate_model,
)
from mcvar.linalg import _block_toeplitz, is_positive_definite
from mcvar.margins import MarginSpec, _skewt_objective, fit_margin, from_normal, logpdf, quantile
from mcvar.varprocess import durbin_levinson, seeded_normals, simulate

H = 1e-6


def central_differences(f, x):
    x = np.asarray(x, dtype=float)
    return np.array([(f(x + H * e) - f(x - H * e)) / (2.0 * H) for e in np.eye(x.size)])


def skewt_sample(params, seed, n):
    u = np.clip(ndtr(seeded_normals(seed, n)), 1e-12, 1.0 - 1e-12)
    return quantile(u, MarginSpec("skewt", params))


# ------------------------------------------------------------------ scores


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    loc=st.floats(-2.0, 2.0),
    dlsc=st.floats(-2.0, 2.0),
    la=st.floats(-2.0, 5.0),
    lb=st.floats(-2.0, 5.0),
    skew=st.sampled_from([(0.0, 0.0), (-1.5, 3.5), (3.5, -1.5)]),
)
def test_skewt_score_matches_central_differences(loc, dlsc, la, lb, skew):
    # the sample is strongly skewed; the point may be too, through `skew`
    x = skewt_sample((0.3, 1.5, 1.5, 8.0), 5, 300)
    theta = np.array([loc, math.log(np.std(x)) + dlsc, la + skew[0], lb + skew[1]])
    nll = _skewt_objective(x)
    value, score = nll(theta)
    hessian = nll.curvature(theta)
    spec = MarginSpec("skewt", (theta[0],) + tuple(np.exp(theta[1:])))
    assert_allclose(value, -np.sum(logpdf(x, spec)), rtol=1e-12)
    fd = central_differences(lambda t: nll(t)[0], theta)
    assert_allclose(score, fd, rtol=1e-5, atol=1e-5 * max(1.0, np.max(np.abs(fd))))
    fd = central_differences(lambda t: nll(t)[1], theta)
    assert_allclose(hessian, fd, rtol=1e-5, atol=1e-5 * max(1.0, np.max(np.abs(fd))))


def test_skewt_score_matches_central_differences_deep_in_the_lower_tail():
    # the true parameters of a sample whose beta arguments reach far below 1e-16
    spec = MarginSpec("skewt", (0.0, 1.0, 0.1, 3.0))
    x = from_normal(seeded_normals(5, 2000), spec)
    theta = np.array([0.0, 0.0, math.log(0.1), math.log(3.0)])
    nll = _skewt_objective(x)
    value, score = nll(theta)
    hessian = nll.curvature(theta)
    assert math.isfinite(value)
    fd = central_differences(lambda t: nll(t)[0], theta)
    assert_allclose(score, fd, rtol=1e-5, atol=1e-5 * max(1.0, np.max(np.abs(fd))))
    fd = central_differences(lambda t: nll(t)[1], theta)
    assert_allclose(hessian, fd, rtol=1e-5, atol=1e-5 * max(1.0, np.max(np.abs(fd))))


def test_skewt_curvature_is_taken_only_at_the_point_evaluated_last():
    # the Hessian reuses the arrays of the last evaluation, so anywhere else it
    # raises rather than pair them with another point
    nll = _skewt_objective(skewt_sample((0.3, 1.5, 1.5, 8.0), 5, 300))
    theta = np.array([0.3, 0.4, 0.4, 2.0])
    nll(theta)
    assert np.all(np.isfinite(nll.curvature(theta)))
    with pytest.raises(ValueError):
        nll.curvature(theta + 0.1)


def kernel_case(d, k, T, seed):
    rng = np.random.default_rng(seed)
    r = random_subprocess_corr(rng, d, k).toeplitz()
    return lag_gram(rng.standard_normal((d, T)), k), r


@settings(max_examples=60, derandomize=True, deadline=None)
@given(d=st.integers(1, 3), k=st.integers(1, 3), extra=st.integers(0, 7),
       seed=st.integers(0, 2**32 - 1))
def test_kernel_score_matches_central_differences(d, k, extra, seed):
    # T runs from 1 to k + 4: T <= k scores the head alone
    T = 1 + extra % (k + 4)
    gram, r = kernel_case(d, k, T, seed)
    value, score, _ = estimation._gaussian_var_score(gram, r, k)
    assert value == gaussian_var_loglik(gram, r, k)
    w = r.shape[0]
    fd = np.zeros((w, w))
    for i in range(w):
        for j in range(i, w):
            e = np.zeros((w, w))
            e[i, j] = e[j, i] = H
            dv = (gaussian_var_loglik(gram, r + e, k) - gaussian_var_loglik(gram, r - e, k)) / (2 * H)
            # a symmetric step moves both (i, j) and (j, i)
            fd[i, j] = fd[j, i] = dv if i == j else 0.5 * dv
    assert_allclose(score, score.T, rtol=0, atol=1e-12 * max(1.0, np.max(np.abs(score))))
    assert_allclose(score, fd, rtol=1e-5, atol=1e-6 * max(1.0, np.max(np.abs(fd))))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(k=st.integers(1, 4), T=st.integers(1, 60), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([0.3, 1.0, 2.0]))
# PACFs within 0.006 of +-1: values of 3.9e6, 4.0e9 and 6.9e10 nats, where
# evaluations 1e-15 apart spread by up to 5e-6 relative, so no finite
# difference in double precision can check the score; the oracle differentiates
# the exact value in mpmath
@example(k=4, T=9, seed=0, scale=2.0)
@example(k=4, T=25, seed=13, scale=2.0)
@example(k=4, T=13, seed=4, scale=2.0)
# cond(R) = 7.5e11: the kernel's Cholesky of R rounds value and score by about
# cond(R) * 1e-16 relative, and here the value misses the oracle by 1.3e-5
@example(k=4, T=14, seed=2803643808, scale=2.0).xfail(
    raises=AssertionError, reason="the kernel loses accuracy on a nearly singular scalar R")
def test_scalar_stage2_score_matches_central_differences(k, T, seed, scale):
    # stage 2's model of a scalar sub-process: the one-set joint model at d = 1, whose
    # parameters are the autocorrelations, drawn here through tanh-mapped PACFs
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((1, T))
    gram = lag_gram(z, k)
    rho = np.array(durbin_levinson_scalar(np.tanh(scale * rng.standard_normal(k)), "pacf")[0])
    r = estimation._theta_to_corr(rho, 1, k).toeplitz()
    nll = estimation._objective(gram, k, estimation._joint_model(Partition(sets=((0,),), d=1),
                                                                 (1,), k))
    value, score = nll(rho)
    assert_allclose(value, -gaussian_var_loglik(gram, r, k), rtol=1e-10)
    assert_allclose(value, float(scalar_nll_mp(rho, z)), rtol=1e-5)
    oracle = scalar_score_mp(rho, z)
    assert_allclose(score, oracle, rtol=1e-5, atol=1e-6 * max(1.0, np.max(np.abs(oracle))))


# ------------------------------------- scored fits against Nelder-Mead oracles

# (params, seed): the two paper_k2 truth margins and the scale_k3_d19 skew-t margin
MARGINS = [((0.850, 0.791, 5.739, 9.344), 11), ((-0.032, 0.172, 3.053, 2.738), 12),
           ((0.0, 0.1, 3.0, 5.0), 13)]


@pytest.mark.parametrize("params, seed", MARGINS)
def test_skewt_margin_fit_never_loses_to_nelder_mead(params, seed):
    x = skewt_sample(params, seed, 2000)
    fit = fit_margin(x, "skewt")
    _, ll_oracle, _ = fit_margin_nelder_mead(x)
    assert fit.converged
    assert fit.loglik >= ll_oracle - 1e-6


@pytest.mark.parametrize("replicate", [0, 1, 5])
def test_skewt_margin_fit_pins_the_flat_direction(replicate):
    # the benchmark's paper_k2 replicates at seed 11: the skew-t likelihood is
    # nearly flat along (log a, log b), where a fit that stops on a small relative
    # decrease left its parameters up to 8.5e-6 from those scipy's BFGS reaches
    # from it; a Newton run on the exact Hessian ends where the polish does
    truth = construct_model(
        Partition(sets=((0,), (1,)), d=2), (2, 2), 2,
        (MarginSpec("skewt", (0.850, 0.791, 5.739, 9.344)),
         MarginSpec("skewt", (-0.032, 0.172, 3.053, 2.738))),
        [SubprocessCorr(blocks=tuple(np.array([[v]]) for v in values))
         for values in ([1.0, -0.8, 0.6], [1.0, 0.6, 0.5])],
        [CrossFixedBlock((0, 1), 0, [[0.35]])])
    for x in simulate_model(truth, 2000, 11 * 1_000_003 + replicate):
        fit = fit_margin(x, "skewt")
        assert fit.converged
        theta = np.array([fit.spec.params[0], *np.log(fit.spec.params[1:])])
        polished = optimize.minimize(_skewt_objective(x), theta, jac=True, method="BFGS",
                                     options={"gtol": 1e-11})
        assert np.max(np.abs(polished.x - theta)) <= 1e-6


def scalar_series(rho, T, seed):
    """A (1, T) latent series with autocorrelations 1, rho_1..rho_k."""
    sub = SubprocessCorr(blocks=tuple(np.array([[v]]) for v in (1.0,) + tuple(rho)))
    k = len(rho)
    r = sub.toeplitz()
    return simulate(durbin_levinson([r[:1, l:l + 1] for l in range(k + 1)], k), T, seed)


# scalar sub-processes at k = 1, 2, 3 and the scale_k3_d19 pair (k = 3); on the last,
# at k = 4 and T = 100, a run on tanh-mapped PACFs stopped converged 0.87 nats short
SCALAR = [((0.6,), 2000, 1), ((-0.8, 0.6), 2000, 2), ((0.6, 0.5), 2000, 3),
          ((0.3, -0.2, 0.25), 2000, 4), ((0.5, 0.25, 0.125), 2000, 5),
          ((-0.4, 0.16, -0.064), 2000, 6), ((0.9, 0.8), 300, 7),
          ((0.829884, 0.970527, 0.778961, 0.910275), 100, 166)]


@pytest.mark.parametrize("rho, T, seed", SCALAR)
def test_scalar_stage2_never_loses_to_nelder_mead(rho, T, seed):
    z = scalar_series(rho, T, seed)
    k = len(rho)
    sf = fit_stage2(z, (0,), k)
    corr, ll_oracle, _ = scalar_stage2_nelder_mead(z, k)
    assert sf.converged
    assert sf.loglik >= ll_oracle - 1e-6
    assert_allclose(sf.loglik, gaussian_var_loglik(z, sf.corr.toeplitz(), k), rtol=1e-12)
    assert_allclose([sf.corr.block(l)[0, 0] for l in range(1, k + 1)],
                    [corr.block(l)[0, 0] for l in range(1, k + 1)], atol=1e-4)


# ------------------------------------------------ stage-4 score and dependence stages


def random_model(dims, labels, k, seed):
    """A margin-closed model on sets of the given sizes scattered over 0..d-1, with
    standard normal margins, or None when its R is not positive definite."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(sum(dims))
    sets = tuple(tuple(sorted(s.tolist())) for s in np.split(perm, np.cumsum(dims)[:-1]))
    part = Partition(sets=sets, d=sum(dims))
    subs = [random_subprocess_corr(rng, di, k) for di in dims]
    fixed = [CrossFixedBlock(pair=(i, j), lag=fixed_lag_for_labels((labels[i], labels[j]), k),
                             value=0.15 * rng.uniform(-1.0, 1.0, (dims[i], dims[j])))
             for i in range(len(dims)) for j in range(i + 1, len(dims))]
    margins = (MarginSpec("gaussian", (0.0, 1.0)),) * part.d
    try:
        model = construct_model(part, labels, k, margins, subs, fixed)
    except DegenerateCrossPair:
        return None
    return model if is_positive_definite(model.time_major_R()) else None


def joint_theta(model):
    fixed = [CrossFixedBlock(pair=c.pair, lag=lag, value=c.block(lag)) for c in model.crosses
             for lag in [fixed_lag_for_labels((model.labels[c.pair[0]], model.labels[c.pair[1]]),
                                              model.k)]]
    return np.concatenate([estimation._corr_to_theta(s) for s in model.subs]
                          + [estimation._pack_fixed(fixed)])


def exact_build(model, theta):
    """R of ``theta`` through validated containers and the closure construction."""
    k, part = model.k, model.partition
    cuts = np.cumsum([estimation._sub_theta_len(len(s), k) for s in part.sets])
    *sub_thetas, cross_theta = np.split(theta, cuts)
    subs = [estimation._theta_to_corr(t, len(s), k) for t, s in zip(sub_thetas, part.sets)]
    fixed = estimation._unpack_fixed(cross_theta, part, model.labels, k)
    return assemble_full_R(part, subs, _cross_solutions(subs, model.labels, fixed))


JOINT = dict(dims=st.lists(st.integers(1, 2), min_size=2, max_size=3),
             labels=st.tuples(*[st.sampled_from((1, 2))] * 3), k=st.integers(1, 2),
             seed=st.integers(0, 2**32 - 1))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(**JOINT)
def test_stage4_jacobian_matches_differences_of_the_exact_build(dims, labels, k, seed):
    # the block Toeplitz matrix of row a of the lag stack's Jacobian is dR / dtheta_a,
    # so the sub-process and cross-block tangents are compared through every entry of R
    model = random_model(dims, labels[:len(dims)], k, seed)
    assume(model is not None)
    theta = joint_theta(model)
    gamma, jacobian = estimation._joint_model(model.partition, model.labels, k)(theta)
    assert np.array_equal(_block_toeplitz(gamma), exact_build(model, theta))
    jac = _block_toeplitz(jacobian()).reshape(len(theta), -1)
    fd = central_differences(lambda t: exact_build(model, t).ravel(), theta)
    assert_allclose(jac, fd, rtol=1e-6, atol=1e-8 * max(1.0, np.max(np.abs(fd))))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(T=st.integers(2, 60), **JOINT)
def test_stage4_score_matches_central_differences(T, dims, labels, k, seed):
    model = random_model(dims, labels[:len(dims)], k, seed)
    assume(model is not None)
    theta = joint_theta(model)
    gram = lag_gram(np.random.default_rng(seed + 1).standard_normal((model.partition.d, T)), k)
    nll = estimation._objective(gram, k, estimation._joint_model(model.partition, model.labels, k))
    value, score = nll(theta)
    assert value == -gaussian_var_loglik(gram, model.time_major_R(), k)
    fd = central_differences(lambda t: nll(t)[0], theta)
    assert_allclose(score, fd, rtol=1e-5, atol=1e-6 * max(1.0, np.max(np.abs(fd))))


@settings(max_examples=3, derandomize=True, deadline=None)
@given(d0=st.integers(2, 3), labels=st.tuples(*[st.sampled_from((1, 2))] * 2),
       seed=st.integers(0, 2**32 - 1))
def test_dependence_stages_never_lose_to_nelder_mead(d0, labels, seed):
    # a d0-variate and a scalar sub-process at k = 1 keep the Nelder-Mead oracles
    # within seconds; each scored stage and its oracle start from the same input
    k = 1
    model = random_model((d0, 1), labels, k, seed)
    assume(model is not None)
    z = simulate_model(model, 400, seed)
    part = model.partition
    sub_fits = [fit_stage2(z, s, k) for s in part.sets]
    assert sub_fits[0].loglik >= stage2_nelder_mead(z, part.sets[0], k) - 1e-6
    subs = [sf.corr for sf in sub_fits]
    st3 = fit_stage3(z, subs, labels, part, k)
    assert st3.loglik >= stage3_nelder_mead(z, subs, labels, part, k) - 1e-6
    ll4 = fit_stage4(z, part, labels, subs, st3.fixed_blocks, k)[3]
    assert ll4 >= stage4_nelder_mead(z, part, labels, subs, st3.fixed_blocks, k) - 1e-6
    assert sub_fits[0].converged and st3.converged


def test_stage4_does_not_stop_short_on_a_flat_direction():
    # seed 1435 of the draw of test_fit_model_property_over_random_partitions at d = 4,
    # three sets, labels (2, 2, 1), k = 1: BFGS once stopped stage 4 there on two small
    # decreases with a max-abs score of 0.35, 1.7e-5 nats short of the optimum
    seed, d, n, labels, k = 1435, 4, 3, (2, 2, 1), 1
    rng = np.random.default_rng(seed)
    owner = rng.permutation(np.arange(d) % n)
    part = Partition(sets=tuple(tuple(np.flatnonzero(owner == g).tolist()) for g in range(n)), d=d)
    subs = [random_subprocess_corr(rng, len(s), k) for s in part.sets]
    dims = [len(s) for s in part.sets]
    fixed = [CrossFixedBlock(pair=(i, j), lag=fixed_lag_for_labels((labels[i], labels[j]), k),
                             value=0.15 * rng.uniform(-1.0, 1.0, (dims[i], dims[j])))
             for i in range(n) for j in range(i + 1, n)]
    margins = (MarginSpec("gaussian", (0.0, 1.0)),) * d
    x = simulate_model(construct_model(part, labels, k, margins, subs, fixed), 600, seed)
    fit = fit_model(x, ModelConfig(partition=part, labels=labels, k=k,
                                   margin_families=("gaussian",) * d), stage4=True)
    assert fit.converged
    # scipy's BFGS at a tight gtol, from the fitted point, finds nothing better
    gram = lag_gram(latent_scores(x, fit.model.margins), k)
    nll = estimation._objective(gram, k, estimation._joint_model(part, labels, k))
    polished = optimize.minimize(nll, joint_theta(fit.model), jac=True, method="BFGS",
                                 options={"gtol": 1e-9})
    assert fit.stage_logliks["stage4"] >= -polished.fun - 1e-9
    # a second scipy BFGS polish (gtol 1e-11) of an earlier end point reaches this
    # value; a restart scaled by s'y / y'y, the stiff curvature 1e9 along the score,
    # stopped 1.3e-8 nats short of it
    assert fit.stage_logliks["stage4"] >= -1015.945272603163 - 1e-10


@settings(max_examples=55, derandomize=True, deadline=None)
@given(dims=st.one_of(st.lists(st.integers(1, 3), min_size=1, max_size=1),
                      st.lists(st.integers(1, 2), min_size=2, max_size=3)),
       labels=st.tuples(*[st.sampled_from((1, 2))] * 3), k=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_information_matches_the_dense_covariance_of_every_observation(dims, labels, k, seed):
    # at T = k + 3 the head, window and past blocks all enter; the joint model at
    # the model's parameters (stage 2's on one set of d = 1-3, stage 4's on more),
    # and stage 3's with the sub-processes held; the information is the curvature
    # that the objective builds from its own evaluation at the point
    model = random_model(dims, labels[:len(dims)], k, seed)
    assume(model is not None)
    part, labels, d, T = model.partition, model.labels, model.partition.d, k + 3
    gram = lag_gram(np.random.default_rng(seed + 1).standard_normal((d, T)), k)
    theta = joint_theta(model)
    fixed = theta[sum(estimation._sub_theta_len(len(s), k) for s in part.sets):]
    held = list(model.subs)
    cases = [(estimation._joint_model(part, labels, k), theta, lambda t: exact_build(model, t))]
    if part.n > 1:
        cases.append((estimation._joint_model(part, labels, k, held=held), fixed,
                      lambda t: assemble_full_R(part, held, _cross_solutions(
                          held, labels, estimation._unpack_fixed(t, part, labels, k)))))
    for joint, at, build in cases:
        nll = estimation._objective(gram, k, joint)
        assert np.isfinite(nll(at)[0])
        info = nll.curvature(at)
        oracle = information_oracle(build, at, d, k, T)
        assert_allclose(info, oracle, rtol=1e-6, atol=1e-8 * np.max(np.abs(oracle)))
        assert_allclose(info, info.T, rtol=0, atol=1e-12 * np.max(np.abs(info)))
        assert np.linalg.eigvalsh(info)[0] > 0.0
