"""Tests for VAR(k) representations, recursions, simulation, and sample statistics."""

import os
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from oracles import (
    durbin_levinson_scalar,
    partial_autocorr_oracle,
    predictors_oracle,
    random_stationary_var,
    seeded_normals_oracle,
    simulate_oracle,
)
import mcvar.varprocess as varprocess
from mcvar.varprocess import (
    MIN_CHUNK,
    SampleStats,
    VarRepresentation,
    durbin_levinson,
    implied_autocov,
    is_stationary,
    residuals,
    sample_statistics,
    seeded_normals,
    simulate,
    whittle_recursion,
)


def scalar_blocks(values):
    return [np.array([[v]]) for v in values]


def test_var_representation_validates_shapes():
    with pytest.raises(ValueError):
        VarRepresentation(phi=(np.zeros((2, 3)),), sigma=np.eye(2))
    with pytest.raises(ValueError):
        VarRepresentation(phi=(np.zeros((2, 2)),), sigma=np.array([[1.0, 0.5], [0.1, 1.0]]))


def test_companion_layout():
    phi1 = np.array([[0.5, 0.1], [0.0, 0.3]])
    phi2 = np.array([[0.2, 0.0], [0.1, 0.1]])
    var = VarRepresentation(phi=(phi1, phi2), sigma=np.eye(2))
    F = var.companion()
    assert_allclose(F[:2, :2], phi1)
    assert_allclose(F[:2, 2:], phi2)
    assert_allclose(F[2:, :2], np.eye(2))
    assert_allclose(F[2:, 2:], np.zeros((2, 2)))


def test_is_stationary_boundary():
    assert is_stationary(VarRepresentation(phi=(np.array([[0.95]]),), sigma=np.eye(1)))
    assert not is_stationary(VarRepresentation(phi=(np.array([[1.0]]),), sigma=np.eye(1)))


def test_durbin_levinson_known_ar2():
    # Hand-solved Yule-Walker for autocorrelations (1, -0.8, 0.6):
    # Phi = (-8/9, -1/9), innovation variance 16/45.
    var = durbin_levinson(scalar_blocks([1.0, -0.8, 0.6]), 2)
    assert_allclose(var.phi[0][0, 0], -8.0 / 9.0, atol=1e-12)
    assert_allclose(var.phi[1][0, 0], -1.0 / 9.0, atol=1e-12)
    assert_allclose(var.sigma[0, 0], 16.0 / 45.0, atol=1e-12)
    # the same forward predictors from whittle_recursion and, by scalar
    # reversibility, backward predictors (-1/9, -8/9) by lag
    state = whittle_recursion(scalar_blocks([1.0, -0.8, 0.6]), 2)
    assert_allclose([p[0, 0] for p in state["forward"]], [-8.0 / 9.0, -1.0 / 9.0], atol=1e-12)
    assert_allclose([p[0, 0] for p in state["backward"]], [-1.0 / 9.0, -8.0 / 9.0], atol=1e-12)
    # and for (1, 0.6, 0.5): Phi = (15/32, 7/32), variance 39/64
    var2 = durbin_levinson(scalar_blocks([1.0, 0.6, 0.5]), 2)
    assert_allclose(var2.phi[0][0, 0], 15.0 / 32.0, atol=1e-12)
    assert_allclose(var2.phi[1][0, 0], 7.0 / 32.0, atol=1e-12)
    assert_allclose(var2.sigma[0, 0], 39.0 / 64.0, atol=1e-12)


def test_whittle_backward_indexing_convention():
    # AR(1) with rho_l = 0.7^l run at order 2: predicting Z_{t-3} from
    # (Z_{t-1}, Z_{t-2}) puts weight 0.7 on Z_{t-2} and 0 on Z_{t-1}, so with
    # coefficient j multiplying Z_{t-1-j} the backward list must be [0, 0.7].
    state = whittle_recursion(scalar_blocks([1.0, 0.7, 0.49]), 2)
    assert_allclose(state["forward"][0][0, 0], 0.7, atol=1e-12)
    assert_allclose(state["forward"][1][0, 0], 0.0, atol=1e-12)
    assert_allclose(state["backward"][0][0, 0], 0.0, atol=1e-12)
    assert_allclose(state["backward"][1][0, 0], 0.7, atol=1e-12)


def test_whittle_scalar_backward_is_reversed_forward():
    # Scalar stationary processes are time-reversible: the backward
    # coefficients are the forward ones in reverse order, equal error variance.
    state = whittle_recursion(scalar_blocks([1.0, -0.8, 0.6]), 2)
    assert_allclose(state["backward"][0][0, 0], state["forward"][1][0, 0], atol=1e-12)
    assert_allclose(state["backward"][1][0, 0], state["forward"][0][0, 0], atol=1e-12)
    assert_allclose(state["backward_error"], state["forward_error"], atol=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(d=st.integers(1, 4), k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_whittle_matches_explicit_inverse_oracle(d, k, seed):
    rng = np.random.default_rng(seed)
    var = random_stationary_var(rng, d, k)
    gam = implied_autocov(var, k)
    state = whittle_recursion(gam, k)
    fwd, bwd, fwd_err, bwd_err = predictors_oracle(gam)
    for m in range(k):
        assert_allclose(state["forward"][m], fwd[m], atol=1e-9)
        assert_allclose(state["backward"][m], bwd[m], atol=1e-9)
    assert_allclose(state["forward_error"], fwd_err, atol=1e-9)
    assert_allclose(state["backward_error"], bwd_err, atol=1e-9)
    if d == 1:
        # a recursion on the autocorrelations, not the same algebra as the solve
        _, _, preds, variances = durbin_levinson_scalar(
            [g[0, 0] / gam[0][0, 0] for g in gam[1:]], given="acf")
        assert_allclose([p[0, 0] for p in state["forward"]], preds[k], atol=1e-9)
        assert_allclose(state["forward_error"][0, 0], variances[k] * gam[0][0, 0], atol=1e-9)
    # sample PACFs at every lag against conditional correlations by explicit inverse
    stats = sample_statistics(simulate(var, 200, seed), k + 1)
    for i in range(d):
        acov = [a[i, i] for a in stats.autocov]
        for lag in range(1, k + 2):
            assert_allclose(stats.pacf[i, lag - 1], partial_autocorr_oracle(acov, lag),
                            atol=1e-10)


def test_whittle_rejects_non_pd_sequence():
    with pytest.raises(np.linalg.LinAlgError):
        whittle_recursion(scalar_blocks([1.0, 1.0, 1.0]), 2)


def test_whittle_rejects_an_order_k_error_below_pd_tol():
    # the window matrix [1] is PD at k = 1; the check falls on the order-1 error,
    # 1 - (1 - 1e-12)^2 = 2e-12 < PD_TOL, where 1 - 0.99^2 = 0.0199 passes
    with pytest.raises(np.linalg.LinAlgError):
        whittle_recursion(scalar_blocks([1.0, 1.0 - 1e-12]), 1)
    state = whittle_recursion(scalar_blocks([1.0, 0.99]), 1)
    assert_allclose(state["forward_error"][0, 0], 1.0 - 0.99 ** 2, atol=1e-15)
    # d = 2, Gamma(0) = diag(1, 1e-4), Gamma(1) = a e_1 e_2^T with a^2 = 1e-4 - 1e-12:
    # the forward error diag(1e-8, 1e-4) passes and the backward diag(1, 1e-12) does
    # not; the transposed lag block swaps the two, so each error is checked
    lag1 = np.array([[0.0, np.sqrt(1e-4 - 1e-12)], [0.0, 0.0]])
    for g1 in (lag1, lag1.T):
        with pytest.raises(np.linalg.LinAlgError):
            whittle_recursion([np.diag([1.0, 1e-4]), g1], 1)


def test_whittle_refuses_an_order_below_1():
    with pytest.raises(ValueError):
        whittle_recursion(scalar_blocks([1.0, 0.5]), 0)


def test_implied_autocov_roundtrip():
    rng = np.random.default_rng(11)
    for d, k in [(1, 2), (2, 1), (3, 2)]:
        var = random_stationary_var(rng, d, k)
        gam = implied_autocov(var, k + 2)
        back = durbin_levinson(gam, k)
        for m in range(k):
            assert_allclose(back.phi[m], var.phi[m], atol=1e-8)
        assert_allclose(back.sigma, var.sigma, atol=1e-8)


def test_implied_autocov_satisfies_yule_walker_extension():
    rng = np.random.default_rng(13)
    var = random_stationary_var(rng, 2, 2)
    gam = implied_autocov(var, 5)

    def g(l):
        return gam[l] if l >= 0 else gam[-l].T

    for l in range(1, 6):
        rhs = sum(var.phi[m] @ g(l - 1 - m) for m in range(2))
        assert_allclose(gam[l], rhs, atol=1e-10)
    # lag 0 balance: Gamma(0) = sum_m Phi_m Gamma(-m) + Sigma
    rhs0 = sum(var.phi[m] @ g(-1 - m) for m in range(2)) + var.sigma
    assert_allclose(gam[0], rhs0, atol=1e-10)


def test_implied_autocov_requires_stationarity():
    var = VarRepresentation(phi=(np.array([[1.01]]),), sigma=np.eye(1))
    with pytest.raises(ValueError):
        implied_autocov(var, 3)


def test_seeded_normals_frozen_values():
    # Bit-reproducibility contract: PCG64(seed), 53-bit uniforms
    # (n + 0.5) * 2^-53 through the inverse normal CDF.
    got = seeded_normals(0, 4)
    expected = np.array([
        0.35034922725656387,
        -0.61345817870352792,
        -1.7394988867659331,
        -2.1314113206263983,
    ])
    assert_allclose(got, expected, rtol=0, atol=0)
    assert seeded_normals(0, (2, 3)).shape == (2, 3)
    assert_allclose(seeded_normals(9, 10), seeded_normals(9, 10), rtol=0, atol=0)
    assert np.any(seeded_normals(9, 10) != seeded_normals(10, 10))


@pytest.mark.parametrize("seed", [0, 9, 2**32 + 7, 2**63 + 5])
@pytest.mark.parametrize("shape", [(), 5, (19, 100_000)])
def test_seeded_normals_matches_the_integer_draw_oracle(seed, shape):
    # the float draw plus 2^-54 rounds once to the integer formula's value
    got = seeded_normals(seed, shape)
    assert np.shape(got) == np.empty(shape).shape
    assert np.array_equal(got, seeded_normals_oracle(seed, shape))


def usable_cpus(monkeypatch, cpus):
    """Make the chunk helper see ``cpus`` usable CPUs, with or without CPU affinity."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 3000), data=st.data())
def test_the_chunk_fill_at_any_cut_points_is_the_one_stream(seed, n, data):
    # each part draws from its own generator advanced to the part's first
    # position, in any order, so the chunking is covered on a 1-CPU runner too
    cuts = sorted({0, n, *data.draw(st.lists(st.integers(0, n), max_size=6))})
    flat = np.full(n, np.nan)
    for lo, hi in data.draw(st.permutations(list(zip(cuts, cuts[1:])))):
        varprocess._fill_normals(seed, flat, lo, hi)
    assert np.array_equal(flat, seeded_normals_oracle(seed, n))


@pytest.mark.parametrize("cpus", [1, 3])
def test_seeded_normals_on_several_threads_matches_the_integer_draw_oracle(monkeypatch, cpus):
    usable_cpus(monkeypatch, cpus)
    assert np.array_equal(seeded_normals(5, (3, 100_001)), seeded_normals_oracle(5, (3, 100_001)))


@pytest.mark.parametrize("cpus, n, width, parts", [
    (1, 10**6, 1, 1), (4, MIN_CHUNK - 1, 1, 1), (4, 3 * MIN_CHUNK + 5, 1, 3), (4, 10**6, 1, 4),
    (4, MIN_CHUNK, 2, 2), (2, 0, 1, 1),
])
def test_in_chunks_covers_the_range_once_in_at_most_one_part_per_cpu(monkeypatch, cpus, n, width,
                                                                     parts):
    usable_cpus(monkeypatch, cpus)
    calls = []
    varprocess._in_chunks(lambda lo, hi: calls.append((lo, hi, threading.get_ident())), n, width)
    spans = sorted(call[:2] for call in calls)
    assert len(spans) == parts and spans[0][0] == 0 and spans[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    if parts > 1:
        assert all((hi - lo) * width >= MIN_CHUNK for lo, hi in spans)
    # the first part, and a lone part, run on the calling thread
    assert (0, spans[0][1], threading.get_ident()) in calls


def test_in_chunks_raises_what_a_worker_part_raises(monkeypatch):
    usable_cpus(monkeypatch, 2)

    def fn(lo, hi):
        if lo:
            raise ZeroDivisionError("part at %d" % lo)

    with pytest.raises(ZeroDivisionError, match="part at %d" % MIN_CHUNK):
        varprocess._in_chunks(fn, 2 * MIN_CHUNK)


def test_simulate_is_deterministic_and_stationary():
    rng = np.random.default_rng(17)
    var = random_stationary_var(rng, 2, 2)
    z1 = simulate(var, 300, seed=5)
    z2 = simulate(var, 300, seed=5)
    assert_allclose(z1, z2, rtol=0, atol=0)
    assert z1.shape == (2, 300)
    # longer run: sample lag-0/lag-1 moments near the implied ones
    z = simulate(var, 200_000, seed=6)
    gam = implied_autocov(var, 1)
    zc = z - z.mean(axis=1, keepdims=True)
    s0 = zc @ zc.T / z.shape[1]
    s1 = zc[:, 1:] @ zc[:, :-1].T / z.shape[1]
    assert_allclose(s0, gam[0], atol=0.05)
    assert_allclose(s1, gam[1], atol=0.05)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    d=st.integers(1, 6),
    k=st.integers(1, 4),
    extra=st.integers(0, 60),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=3, k=4, extra=0, seed=2)
# near T = 10,000 a block is m = isqrt(T) // 4 = 25 steps: T - k = 400 m - 1,
# 400 m and 400 m + 1 end one step short of, on and one step past a boundary
@example(d=2, k=1, extra=9_999, seed=5)
@example(d=3, k=2, extra=10_000, seed=6)
@example(d=4, k=4, extra=10_001, seed=7)
def test_simulate_matches_per_lag_oracle(d, k, extra, seed):
    var = random_stationary_var(np.random.default_rng(seed), d, k)
    T = k + extra
    z = simulate(var, T, seed)
    ref = simulate_oracle(var, T, seed)
    assert z.shape == (d, T)
    # the block recursion sums in another order: equal up to roundoff
    assert np.all(np.abs(z - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
    assert np.array_equal(simulate(var, T, seed), z)
    if extra == 0:  # no recursion step: the stationary start alone, bit for bit
        assert np.array_equal(z, ref)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="long double is no wider than float64 on this platform, so the long-double "
           "recursion is no more exact than the float64 paths it would check")
@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    d=st.integers(1, 6),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    # with m = 16 steps per block (k <= 4): T = k, k + 1, k + m - 1, k + m + 1;
    # at T = k + 9,995 a block is m = isqrt(T) // 4 = 24 steps and the last is partial
    steps=st.sampled_from([0, 1, 15, 17, 9_995]),
)
@example(d=6, k=4, seed=3, steps=9_995)
# m = 25 steps: T - k = 400 m - 1, 400 m and 400 m + 1
@example(d=6, k=4, seed=4, steps=9_999)
@example(d=5, k=3, seed=5, steps=10_000)
@example(d=4, k=1, seed=6, steps=10_001)
def test_simulate_near_the_unit_circle_matches_a_long_double_recursion(d, k, seed, steps):
    # spectral radius 0.999: the powers of F behind the block recursion carry
    # the most rounding here, so the block path must stay as close to the
    # long-double recursion from the same float64 start and shocks as the
    # per-lag float64 recursion does
    var = random_stationary_var(np.random.default_rng(seed), d, k, radius=0.999)
    T = k + steps
    ref = simulate_oracle(var, T, seed, dtype=np.longdouble)

    def err(z):
        return float(np.max(np.abs(z - ref) / np.maximum(1.0, np.abs(ref)), initial=0.0))

    assert err(simulate(var, T, seed)) <= 2.0 * err(simulate_oracle(var, T, seed)) + 1e-13


def test_simulate_rejects_bad_inputs():
    var = VarRepresentation(phi=(np.array([[1.01]]),), sigma=np.eye(1))
    with pytest.raises(ValueError):
        simulate(var, 50, seed=0)
    ok = VarRepresentation(phi=(np.array([[0.5]]), np.array([[0.1]])), sigma=np.eye(1))
    with pytest.raises(ValueError):
        simulate(ok, 1, seed=0)


def test_residuals_match_definition():
    rng = np.random.default_rng(19)
    var = random_stationary_var(rng, 2, 2)
    z = simulate(var, 50, seed=3)
    res = residuals(z, var)
    assert res.shape == (2, 48)
    for t in range(2, 50):
        manual = z[:, t] - var.phi[0] @ z[:, t - 1] - var.phi[1] @ z[:, t - 2]
        assert_allclose(res[:, t - 2], manual, atol=1e-12)
    # innovation covariance recovered on a long sample
    zl = simulate(var, 100_000, seed=4)
    rl = residuals(zl, var)
    assert_allclose(rl @ rl.T / rl.shape[1], var.sigma, atol=0.05)


def test_sample_statistics_on_known_process():
    var = VarRepresentation(phi=(np.array([[0.6]]),), sigma=np.eye(1))
    z = simulate(var, 150_000, seed=8)
    stats = sample_statistics(z, 3)
    assert isinstance(stats, SampleStats)
    gam = implied_autocov(var, 3)
    for l in range(4):
        assert_allclose(stats.autocov[l], gam[l], atol=0.05)
    # AR(1) partial autocorrelations: phi at lag 1, ~0 beyond
    assert_allclose(stats.pacf[0, 0], 0.6, atol=0.02)
    assert_allclose(stats.pacf[0, 1:], 0.0, atol=0.02)


def test_sample_statistics_rejects_degenerate_input():
    with pytest.raises(ValueError):
        sample_statistics(np.ones((1, 100)), 2)
    with pytest.raises(ValueError):
        sample_statistics(np.random.default_rng(0).standard_normal((1, 5)), 5)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # symmetrize's inf - inf
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_var_representation_refuses_a_non_finite_sigma(bad):
    sigma = np.eye(2)
    sigma[0, 1] = sigma[1, 0] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        VarRepresentation(phi=(np.zeros((2, 2)),), sigma=sigma)
