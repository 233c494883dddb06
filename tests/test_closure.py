"""Tests for cross-dependence solving, assembly, and closure verification."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.testing import assert_allclose

from oracles import (
    assemble_oracle,
    block_toeplitz_oracle,
    closure_residuals_oracle,
    cross_condition_residuals,
    dense_cross_solve,
    partial_autocorr_oracle,
    random_subprocess_corr,
    time_major_index,
)
import mcvar.closure as closure
from mcvar.closure import (
    CrossFixedBlock,
    CrossSolution,
    DegenerateCrossPair,
    Partition,
    SubprocessCorr,
    assemble_full_R,
    coefficient_block_zeros,
    fixed_lag_for_labels,
    solve_cross_pair,
    verify_closure,
)
from mcvar.estimation import construct_model
from mcvar.linalg import is_positive_definite
from mcvar.margins import MarginSpec
from mcvar.varprocess import (
    VarRepresentation,
    durbin_levinson,
    implied_autocov,
)


def scalar_sub(values):
    return SubprocessCorr(blocks=tuple(np.array([[v]]) for v in values))


# ---------------------------------------------------------------- containers


def test_partition_validation():
    p = Partition(sets=((0, 2), (1,)), d=3)
    assert p.n == 2
    assert p.complement(0) == (1,)
    assert p.complement(1) == (0, 2)
    with pytest.raises(ValueError):
        Partition(sets=((0,), (2,)), d=3)  # gap
    with pytest.raises(ValueError):
        Partition(sets=((1, 0),), d=2)  # not increasing
    with pytest.raises(ValueError):
        Partition(sets=((0, 1), (1,)), d=2)  # duplicate
    with pytest.raises(ValueError):
        Partition(sets=((0,), ()), d=1)  # empty set


@pytest.mark.parametrize("cls, fields, message", [
    (Partition, dict(sets=((0.5,), (1,)), d=2), "'partition' must be an integer, got 0.5"),
    (Partition, dict(sets=((True,), (0,)), d=2), "'partition' must be an integer, got True"),
    (CrossFixedBlock, dict(pair=(0.7, 1.2), lag=0, value=[[0.1]]),
     "'cross_fixed pair' must be an integer, got 0.7"),
    (CrossFixedBlock, dict(pair=(0, 1), lag=0.5, value=[[0.1]]),
     "'cross_fixed lag' must be an integer, got 0.5"),
])
def test_a_fractional_or_bool_index_is_refused_not_truncated(cls, fields, message):
    # int() once made these ((0,), (1,)), ((1,), (0,)), pair (0, 1) and lag 0
    with pytest.raises(ValueError, match="model field " + message):
        cls(**fields)


def test_subprocess_corr_validation():
    ok = scalar_sub([1.0, 0.5])
    assert ok.dim == 1 and ok.order == 1
    assert_allclose(ok.block(-1), ok.block(1).T)
    with pytest.raises(ValueError):
        SubprocessCorr(blocks=(np.array([[2.0]]), np.array([[0.5]])))  # diag != 1
    with pytest.raises(ValueError):
        SubprocessCorr(
            blocks=(np.array([[1.0, 0.3], [0.6, 1.0]]), np.eye(2))
        )  # lag-0 asymmetric
    with pytest.raises(ValueError):
        SubprocessCorr(blocks=(np.eye(2), np.zeros((3, 3))))  # shape mismatch


def test_subprocess_corr_toeplitz_and_pd():
    sub = scalar_sub([1.0, -0.8, 0.6])
    t = sub.toeplitz()
    expected = np.array([
        [1.0, -0.8, 0.6],
        [-0.8, 1.0, -0.8],
        [0.6, -0.8, 1.0],
    ])
    assert_allclose(t, expected)
    assert is_positive_definite(sub.toeplitz())
    assert not is_positive_definite(scalar_sub([1.0, 1.0]).toeplitz())


def test_fixed_lag_for_labels():
    assert fixed_lag_for_labels((1, 1), 2) == 0
    assert fixed_lag_for_labels((2, 2), 3) == 0
    assert fixed_lag_for_labels((1, 2), 2) == -2
    assert fixed_lag_for_labels((2, 1), 2) == 2
    with pytest.raises(ValueError):
        fixed_lag_for_labels((0, 1), 2)


# ---------------------------------------------------------------- the solver


@pytest.mark.parametrize("labels", [(1, 1), (2, 2)])
@pytest.mark.parametrize("di,dj,k", [(1, 1, 1), (1, 1, 2), (2, 1, 2), (2, 2, 1), (2, 2, 2), (1, 2, 3)])
def test_solver_matches_dense_probing_oracle(labels, di, dj, k):
    rng = np.random.default_rng(1000 * di + 100 * dj + 10 * k + labels[0])
    ri = random_subprocess_corr(rng, di, k)
    rj = random_subprocess_corr(rng, dj, k)
    value = 0.3 * rng.uniform(-1.0, 1.0, size=(di, dj))
    fixed = CrossFixedBlock(pair=(0, 1), lag=0, value=value)
    sol = solve_cross_pair(ri, rj, labels, fixed)
    ref = dense_cross_solve(
        [ri.block(l) for l in range(k + 1)],
        [rj.block(l) for l in range(k + 1)],
        labels,
        0,
        value,
    )
    for l in range(-k, k + 1):
        assert_allclose(sol.block(l), ref[l], atol=1e-8)
    # residuals of the defining conditions vanish at the returned solution
    res = cross_condition_residuals(
        [ri.block(l) for l in range(k + 1)],
        [rj.block(l) for l in range(k + 1)],
        labels,
        {l: sol.block(l) for l in range(-k, k + 1)},
    )
    assert max(np.max(np.abs(r)) for r in res) < 1e-9


@pytest.mark.parametrize("labels", [(1, 1), (2, 2), (1, 2), (2, 1)])
@settings(max_examples=10, derandomize=True, deadline=None)
@given(
    di=st.integers(1, 3),
    dj=st.integers(1, 3),
    k=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_solver_property_matches_dense_oracle(labels, di, dj, k, seed):
    # every label pattern, with the fixed block at its own lag (0, -k or +k)
    rng = np.random.default_rng(seed)
    ri = random_subprocess_corr(rng, di, k)
    rj = random_subprocess_corr(rng, dj, k)
    lag = fixed_lag_for_labels(labels, k)
    value = 0.3 * rng.uniform(-1.0, 1.0, size=(di, dj))
    sol = solve_cross_pair(ri, rj, labels, CrossFixedBlock(pair=(0, 1), lag=lag, value=value))
    ref = dense_cross_solve(
        [ri.block(l) for l in range(k + 1)],
        [rj.block(l) for l in range(k + 1)],
        labels,
        lag,
        value,
    )
    for l in range(-k, k + 1):
        assert_allclose(sol.block(l), ref[l], rtol=0, atol=1e-8)


@pytest.mark.parametrize("labels", [(1, 1), (2, 2)])
@settings(max_examples=12, derandomize=True, deadline=None)
@given(
    di=st.integers(1, 6),
    dj=st.integers(1, 6),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
@example(di=6, dj=6, k=4, seed=1)  # the largest size
@example(di=6, dj=1, k=4, seed=2)  # a scalar side
@example(di=5, dj=6, k=3, seed=3)  # the scale workload's order
def test_equal_label_solver_property_matches_dense_oracle_up_to_d6_k4(labels, di, dj, k, seed):
    # the elimination through the identity pivots against the oracle's dense solve
    # of all 2k blocks, at sizes where the eliminated system has up to 108 unknowns
    rng = np.random.default_rng(seed)
    ri = random_subprocess_corr(rng, di, k)
    rj = random_subprocess_corr(rng, dj, k)
    value = 0.3 * rng.uniform(-1.0, 1.0, size=(di, dj))
    sol = solve_cross_pair(ri, rj, labels, CrossFixedBlock(pair=(0, 1), lag=0, value=value))
    ref = dense_cross_solve(
        [ri.block(l) for l in range(k + 1)],
        [rj.block(l) for l in range(k + 1)],
        labels,
        0,
        value,
    )
    scale = max(1.0, max(np.max(np.abs(ref[l])) for l in range(-k, k + 1)))
    for l in range(-k, k + 1):
        assert_allclose(sol.block(l), ref[l], rtol=0, atol=1e-10 * scale)


def _mirrored_direction(rng, d, k):
    """A random (2k+1, d, d) lag stack direction with D_{-l} = D_l^T and D_0 symmetric."""
    lag0 = rng.standard_normal((d, d))
    return closure._mirror_lags([lag0 + lag0.T] + list(rng.standard_normal((k, d, d))))


@pytest.mark.parametrize("label", [1, 2])
@settings(max_examples=12, derandomize=True, deadline=None)
@given(
    di=st.integers(1, 5),
    dj=st.integers(1, 5),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
@example(di=5, dj=5, k=4, seed=1)  # the largest size
@example(di=4, dj=2, k=3, seed=2)  # unequal sides
def test_pair_tangents_match_central_differences(label, di, dj, k, seed):
    # the tangents of an equal-label pair's stack along directions of both sub-processes
    # (which move their predictor bands) and of the fixed block, against central
    # differences of the value solve
    rng = np.random.default_rng(seed)
    subs = [random_subprocess_corr(rng, d, k) for d in (di, dj)]
    stacks = {c: closure._mirror_lags(r.blocks) for c, r in enumerate(subs)}
    labels = {0: label, 1: label}
    value = 0.3 * rng.uniform(-1.0, 1.0, size=(di, dj))
    dstacks = {c: 0.1 * _mirrored_direction(rng, d, k)[None] for c, d in enumerate((di, dj))}
    dvalue = 0.1 * rng.standard_normal((di, dj))
    _, tangent = closure._solve_pairs(stacks, labels, [(0, 1)], [value])
    along_i, along_j, along_fixed = tangent(dstacks)[0]
    got = along_i[0] + along_j[0] + np.tensordot(dvalue.ravel(), along_fixed, 1)

    def solved(h):
        moved = {c: stacks[c] + h * dstacks[c][0] for c in stacks}
        return closure._solve_pairs(moved, labels, [(0, 1)], [value + h * dvalue])[0][0]

    h = 1e-5
    expected = (solved(h) - solved(-h)) / (2 * h)
    assert_allclose(got, expected, rtol=0, atol=1e-6 * max(1.0, np.max(np.abs(expected))))


@pytest.mark.parametrize("labels", [(1, 2), (2, 1)])
def test_mixed_labels_zero_except_fixed(labels):
    rng = np.random.default_rng(42)
    k = 2
    ri = random_subprocess_corr(rng, 2, k)
    rj = random_subprocess_corr(rng, 1, k)
    lag = fixed_lag_for_labels(labels, k)
    value = np.array([[0.25], [-0.1]])
    sol = solve_cross_pair(ri, rj, labels, CrossFixedBlock(pair=(0, 1), lag=lag, value=value))
    assert_allclose(sol.block(lag), value)
    for l in range(-k, k + 1):
        if l != lag:
            assert np.all(sol.block(l) == 0.0)  # exact zeros, not just small
    res = cross_condition_residuals(
        [ri.block(l) for l in range(k + 1)],
        [rj.block(l) for l in range(k + 1)],
        labels,
        {l: sol.block(l) for l in range(-k, k + 1)},
    )
    assert max(np.max(np.abs(r)) for r in res) == 0.0


def test_solver_closed_form_bivariate_lag1():
    # Two scalar AR(1) margins, k = 1.  With both labels 1 the solution is
    # Sigma_{12,1} = rho_1 c0 and Sigma_{12,-1} = rho_2 c0; with both labels 2
    # the two lags swap roles.
    rho1, rho2, c0 = 0.9, -0.9, 0.3
    ri = scalar_sub([1.0, rho1])
    rj = scalar_sub([1.0, rho2])
    fixed = CrossFixedBlock(pair=(0, 1), lag=0, value=[[c0]])
    s11 = solve_cross_pair(ri, rj, (1, 1), fixed)
    assert_allclose(s11.block(1)[0, 0], rho1 * c0, atol=1e-12)
    assert_allclose(s11.block(-1)[0, 0], rho2 * c0, atol=1e-12)
    s22 = solve_cross_pair(ri, rj, (2, 2), fixed)
    assert_allclose(s22.block(1)[0, 0], rho2 * c0, atol=1e-12)
    assert_allclose(s22.block(-1)[0, 0], rho1 * c0, atol=1e-12)


def test_solver_input_validation():
    ri = scalar_sub([1.0, 0.5, 0.2])
    rj = scalar_sub([1.0, 0.4])
    with pytest.raises(ValueError):
        solve_cross_pair(ri, rj, (1, 1), CrossFixedBlock(pair=(0, 1), lag=0, value=[[0.1]]))
    rj2 = scalar_sub([1.0, 0.4, 0.1])
    with pytest.raises(ValueError):
        solve_cross_pair(ri, rj2, (1, 1), CrossFixedBlock(pair=(0, 1), lag=1, value=[[0.1]]))
    with pytest.raises(ValueError):
        solve_cross_pair(ri, rj2, (1, 1), CrossFixedBlock(pair=(0, 1), lag=0, value=[[0.1, 0.2]]))


def test_degenerate_pair_raises():
    # rho_1 = 0 and rho_2 -> 1 makes the condition system singular when both
    # labels are 1: its determinant is proportional to 1 - phi_{i,2} phi_{j,2}.
    sub = scalar_sub([1.0, 0.0, 1.0 - 1e-12])
    fixed = CrossFixedBlock(pair=(0, 1), lag=0, value=[[0.2]])
    with pytest.raises(DegenerateCrossPair) as exc:
        solve_cross_pair(sub, sub, (1, 1), fixed)
    assert exc.value.pair == (0, 1)
    assert isinstance(exc.value, np.linalg.LinAlgError)


def test_condition_number_above_the_limit_raises(monkeypatch):
    # a well-posed equal-label pair: it solves at the default limit, and the
    # condition test alone rejects it once the limit sits below its 1-norm
    # condition number (which is at least 1)
    rng = np.random.default_rng(3)
    ri, rj = random_subprocess_corr(rng, 2, 2), random_subprocess_corr(rng, 1, 2)
    fixed = CrossFixedBlock(pair=(0, 1), lag=0, value=[[0.1], [0.2]])
    solve_cross_pair(ri, rj, (1, 1), fixed)
    monkeypatch.setattr(closure, "CONDITION_LIMIT", 1.0)
    with pytest.raises(DegenerateCrossPair, match="condition number") as exc:
        solve_cross_pair(ri, rj, (1, 1), fixed)
    assert exc.value.pair == (0, 1)


# ------------------------------------------------------- assembly and layout


def build_two_sub_model(labels, c0=0.3, k=2):
    ri = scalar_sub([1.0, -0.8, 0.6][: k + 1])
    rj = scalar_sub([1.0, 0.6, 0.5][: k + 1])
    lag = fixed_lag_for_labels(labels, k)
    d_i, d_j = ri.dim, rj.dim
    value = np.full((d_i, d_j), c0)
    sol = solve_cross_pair(ri, rj, labels, CrossFixedBlock(pair=(0, 1), lag=lag, value=value))
    part = Partition(sets=((0,), (1,)), d=2)
    rtm = assemble_full_R(part, [ri, rj], [sol])
    return part, ri, rj, sol, rtm


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    d=st.integers(1, 6),
    k=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_gathered_toeplitz_and_assembly_match_np_block_oracle(d, k, seed):
    # exact equality: all three place copies of the same blocks
    rng = np.random.default_rng(seed)
    owner = rng.integers(0, d, size=d)  # random partition: variable v joins set owner[v]
    sets = tuple(tuple(np.flatnonzero(owner == g).tolist()) for g in rng.permutation(d))
    part = Partition(sets=tuple(s for s in sets if s), d=d)
    dims = [len(s) for s in part.sets]
    subs = [random_subprocess_corr(rng, di, k) for di in dims]
    for sub in subs:
        assert np.array_equal(sub.toeplitz(), block_toeplitz_oracle(sub.block, k))
    crosses = [
        CrossSolution(pair=(i, j), order=k,
                      blocks=tuple(rng.uniform(-1.0, 1.0, (dims[i], dims[j]))
                                   for _ in range(2 * k + 1)))
        for i in range(len(dims)) for j in range(i + 1, len(dims))
    ]
    idx = time_major_index(part, k)
    expected = assemble_oracle(subs, crosses)[np.ix_(idx, idx)]
    assert np.array_equal(assemble_full_R(part, subs, crosses), expected)


def test_assemble_full_R_entrywise():
    # three variables split as {0, 2} and {1}: every entry of the time-major
    # matrix must equal the corresponding sub-process or cross block entry.
    rng = np.random.default_rng(5)
    k = 2
    ra = random_subprocess_corr(rng, 2, k)
    rb = random_subprocess_corr(rng, 1, k)
    fixed = CrossFixedBlock(pair=(0, 1), lag=0, value=0.2 * rng.uniform(-1, 1, (2, 1)))
    sol = solve_cross_pair(ra, rb, (1, 1), fixed)
    part = Partition(sets=((0, 2), (1,)), d=3)
    rtm = assemble_full_R(part, [ra, rb], [sol])
    d = 3
    assert rtm.shape == ((k + 1) * d, (k + 1) * d)
    assert_allclose(rtm, rtm.T, atol=1e-12)
    local = {0: (0, 0), 2: (0, 1), 1: (1, 0)}  # global var -> (sub, local idx)

    def expected(r, s, ga, gb):
        ia, la = local[ga]
        ib, lb = local[gb]
        l = s - r
        if ia == ib:
            blk = (ra if ia == 0 else rb).block(l)
            return blk[la, lb]
        if ia < ib:
            return sol.block(l)[la, lb]
        return sol.block(-l)[lb, la]

    for r in range(k + 1):
        for s in range(k + 1):
            for ga in range(d):
                for gb in range(d):
                    assert_allclose(
                        rtm[r * d + ga, s * d + gb], expected(r, s, ga, gb), atol=1e-12
                    )


def test_assemble_requires_all_pairs():
    rng = np.random.default_rng(9)
    subs = [random_subprocess_corr(rng, 1, 1) for _ in range(3)]
    part = Partition(sets=((0,), (1,), (2,)), d=3)
    sol01 = solve_cross_pair(
        subs[0], subs[1], (1, 1), CrossFixedBlock(pair=(0, 1), lag=0, value=[[0.1]])
    )
    with pytest.raises(ValueError):
        assemble_full_R(part, subs, [sol01])


# ------------------------------------------------------- closure verification


@pytest.mark.parametrize(
    "labels,expected_holds",
    [((1, 1), (1, 1)), ((2, 2), (2, 2)), ((1, 2), (1, 2)), ((2, 1), (2, 1))],
)
def test_verify_closure_identifies_condition(labels, expected_holds):
    part, ri, rj, sol, rtm = build_two_sub_model(labels)
    report = verify_closure(rtm, part, 2)
    assert report.all_pass
    assert tuple(s.holds for s in report.subs) == expected_holds
    text = str(report)
    assert "S={1}" in text and "S={2}" in text


def test_verify_closure_rejects_non_pd():
    part = Partition(sets=((0,), (1,)), d=2)
    with pytest.raises(np.linalg.LinAlgError):
        verify_closure(np.ones((4, 4)), part, 1)


@pytest.mark.parametrize("row, col, value", [(0, 3, np.nan), (2, 2, np.inf)])
def test_verify_closure_refuses_a_non_finite_matrix(row, col, value):
    # such a matrix once passed the positive-definiteness gate and died in a
    # later solve with a ValueError
    part = Partition(sets=((0,), (1,)), d=2)
    r = 0.5 * (np.eye(4) + 1.0)  # equicorrelated 0.5, positive definite
    r[row, col] = r[col, row] = value
    with pytest.raises(np.linalg.LinAlgError):
        verify_closure(r, part, 1)


def test_closure_fails_for_nonclosed_var():
    # VAR(1) with A = [[0, 1/2], [0, 1/2]]: the first variable alone is not
    # an AR(1) (its lag-2 partial autocorrelation is 1/21), the second is.
    a = np.array([[0.0, 0.5], [0.0, 0.5]])
    var = VarRepresentation(phi=(a,), sigma=np.eye(2))
    gam = implied_autocov(var, 2)
    scale = 1.0 / np.sqrt(np.diag(gam[0]))
    corr = [g * np.outer(scale, scale) for g in gam]
    g1 = [corr[l][0, 0] for l in range(3)]
    assert_allclose(partial_autocorr_oracle(g1, 2), 1.0 / 21.0, atol=1e-12)

    d = 2
    rtm = np.block([[corr[abs(s - r)] if s >= r else corr[abs(s - r)].T for s in range(2)] for r in range(2)])
    part = Partition(sets=((0,), (1,)), d=d)
    report = verify_closure(rtm, part, 1)
    assert not report.all_pass
    assert report.subs[0].holds is None
    assert report.subs[0].markov_residual > 1e-3
    assert report.subs[1].holds == 1
    assert "fails" in str(report) or "none" in str(report).lower()


def test_coefficient_block_zeros():
    # label-1 sub-processes must not load on the others' lags
    part = Partition(sets=((0,), (1,)), d=2)
    a_bad = np.array([[0.0, 0.5], [0.0, 0.5]])
    var_bad = VarRepresentation(phi=(a_bad,), sigma=np.eye(2))
    assert not coefficient_block_zeros((1, 1), var_bad, part)
    assert coefficient_block_zeros((2, 1), var_bad, part)  # only sub 2 checked, its row is diagonal

    part2, ri, rj, sol, rtm = build_two_sub_model((1, 1))
    d = 2
    slices = [rtm[:d, l * d:(l + 1) * d] for l in range(3)]
    var = durbin_levinson(slices, 2)
    assert coefficient_block_zeros((1, 1), var, part2)


def test_verify_closure_markov_residual_zero_for_true_order():
    # genuinely Markov-k sub-processes (here an AR(1) and an AR(2) at k = 2)
    # have a vanishing conditional link between Z_t and Z_{t-k-1}
    ri = scalar_sub([1.0, 0.7, 0.49])
    rj = scalar_sub([1.0, 0.6, 0.5])
    lag = fixed_lag_for_labels((1, 1), 2)
    sol = solve_cross_pair(ri, rj, (1, 1), CrossFixedBlock(pair=(0, 1), lag=lag, value=[[0.3]]))
    part = Partition(sets=((0,), (1,)), d=2)
    rtm = assemble_full_R(part, [ri, rj], [sol])
    report = verify_closure(rtm, part, 2)
    assert report.subs[0].markov_residual < 1e-10
    assert report.subs[1].markov_residual < 1e-10
    assert report.subs[0].holds == 1


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    labels=st.lists(st.sampled_from([1, 2]), min_size=4, max_size=4),
    k=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_verify_closure_matches_one_conditioning_per_residual_oracle(sizes, labels, k, seed):
    # one Schur complement per sub-process gives the residuals of three separate ones
    rng = np.random.default_rng(seed)
    order = rng.permutation(sum(sizes)).tolist()
    cuts = np.cumsum([0] + sizes)
    part = Partition(sets=tuple(tuple(sorted(order[a:b])) for a, b in zip(cuts, cuts[1:])),
                     d=sum(sizes))
    labels = tuple(labels[:part.n])
    subs = [random_subprocess_corr(rng, n, k) for n in sizes]
    fixed = [CrossFixedBlock(pair=(i, j), lag=fixed_lag_for_labels((labels[i], labels[j]), k),
                             value=0.1 * rng.uniform(-1.0, 1.0, (sizes[i], sizes[j])))
             for i in range(part.n) for j in range(i + 1, part.n)]
    try:
        model = construct_model(part, labels, k, (MarginSpec("gaussian", (0.0, 1.0)),) * part.d,
                                subs, fixed)
    except DegenerateCrossPair:
        assume(False)
    r = model.time_major_R()
    assume(is_positive_definite(r))
    report = verify_closure(r, part, k)
    for got, want in zip(report.subs, closure_residuals_oracle(r, part, k)):
        assert_allclose((got.cond1_residual, got.cond2_residual, got.markov_residual), want,
                        rtol=0, atol=1e-12)
        assert got.holds == (1 if want[0] < report.tol else (2 if want[1] < report.tol else None))
