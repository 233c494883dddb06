"""Tests for the small linear-algebra layer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from mcvar.linalg import (
    PD_TOL,
    SYMMETRY_TOL,
    gaussian_condition,
    is_positive_definite,
    symmetrize,
)
from oracles import commutation_matrix, exchange_matrix, is_positive_definite_oracle, unvec


def test_vec_is_column_major():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert_allclose(a.reshape(-1, order="F"), np.array([1.0, 3.0, 2.0, 4.0]))


def test_unvec_roundtrip():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 5))
    assert_allclose(unvec(a.reshape(-1, order="F"), 3, 5), a)


def test_commutation_matrix_swaps_vec_of_transpose():
    rng = np.random.default_rng(1)
    for m, n in [(2, 2), (2, 3), (4, 1), (3, 5)]:
        a = rng.standard_normal((m, n))
        kmn = commutation_matrix(m, n)
        assert_allclose(kmn @ a.reshape(-1, order="F"), a.T.reshape(-1, order="F"))
        # orthogonal permutation
        assert_allclose(kmn.T @ kmn, np.eye(m * n))


def test_exchange_matrix_reverses_block_order():
    j = exchange_matrix(3)
    assert_allclose(j, np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=float))
    v = np.array([1.0, 2.0, 3.0])
    assert_allclose(j @ v, v[::-1])


def test_symmetrize_accepts_small_asymmetry():
    a = np.array([[1.0, 0.5], [0.5 + 1e-12, 1.0]])
    s = symmetrize(a)
    assert_allclose(s, s.T)


def test_symmetrize_rejects_large_asymmetry():
    a = np.array([[1.0, 0.5], [0.1, 1.0]])
    with pytest.raises(ValueError):
        symmetrize(a)


def test_is_positive_definite_boundary():
    assert is_positive_definite(np.eye(3))
    assert not is_positive_definite(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert not is_positive_definite(np.array([[1.0, 2.0], [2.0, 1.0]]))


@pytest.mark.parametrize("row, col, value", [(0, 1, np.nan), (1, 1, np.inf)])
def test_is_positive_definite_refuses_a_non_finite_entry(row, col, value):
    # the symmetry gap of a NaN is NaN, which no tolerance test rejects, and the
    # Cholesky of such a matrix need not raise
    a = np.eye(3)
    a[row, col] = a[col, row] = value
    assert not is_positive_definite(a)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    n=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    gap=st.one_of(st.floats(-1.0, -1e-6), st.floats(1e-6, 1.0)),
)
def test_is_positive_definite_agrees_with_eigvalsh_oracle(n, seed, gap):
    # Q diag(lam) Q^T with its smallest eigenvalue PD_TOL + gap, |gap| >= 1e-6
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = PD_TOL + gap + np.concatenate([[0.0], rng.uniform(0.0, 5.0, n - 1)])
    a = (q * lam) @ q.T
    assert is_positive_definite(a) == is_positive_definite_oracle(a, PD_TOL) == (gap > 0)
    if n > 1:
        skew = np.zeros((n, n))
        skew[0, n - 1] = 10.0 * SYMMETRY_TOL
        with pytest.raises(ValueError):
            is_positive_definite(a + skew)


def test_gaussian_condition_matches_explicit_inverse():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((5, 5))
    cov = a @ a.T + 5.0 * np.eye(5)
    head, tail = [0, 3], [1, 2, 4]
    coeff, cond = gaussian_condition(cov, head, tail)
    s_hh = cov[np.ix_(head, head)]
    s_ht = cov[np.ix_(head, tail)]
    s_tt = cov[np.ix_(tail, tail)]
    ref_coeff = s_ht @ np.linalg.inv(s_tt)
    ref_cond = s_hh - ref_coeff @ s_ht.T
    assert_allclose(coeff, ref_coeff, atol=1e-12)
    assert_allclose(cond, ref_cond, atol=1e-12)


def test_gaussian_condition_empty_tail():
    cov = np.diag([2.0, 3.0])
    coeff, cond = gaussian_condition(cov, [0, 1], [])
    assert coeff.shape == (2, 0)
    assert_allclose(cond, cov)


def test_gaussian_condition_rejects_overlap():
    with pytest.raises(ValueError):
        gaussian_condition(np.eye(3), [0, 1], [1, 2])


def test_gaussian_condition_singular_tail_raises():
    cov = np.ones((3, 3))
    with pytest.raises(np.linalg.LinAlgError):
        gaussian_condition(cov, [0], [1, 2])
