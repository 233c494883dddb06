"""Dense linear-algebra primitives shared by the model-construction machinery.

Conventions: matrices are 2-d float ndarrays.  A lag sequence B_0..B_m
stands for the lags -m..m with B_{-l} = B_l^T, and its block Toeplitz
matrix has block (r, s) = B_{s-r}.
"""

import warnings

import numpy as np
from scipy.linalg import LinAlgWarning
from scipy.linalg.lapack import dlange, dsycon, dsytrf, dsytrf_lwork, dsytrs

# Default numerical tolerances.  PD is judged on the smallest eigenvalue of
# the symmetrized input; inputs more asymmetric than SYMMETRY_TOL are rejected
# rather than silently averaged.
PD_TOL = 1e-10
SYMMETRY_TOL = 1e-9

__all__ = [
    "PD_TOL",
    "SYMMETRY_TOL",
    "symmetrize",
    "is_positive_definite",
    "gaussian_condition",
]


def symmetrize(a, tol=SYMMETRY_TOL):
    """Return (a + a.T)/2, rejecting inputs asymmetric beyond ``tol`` and inputs with
    a NaN or infinite entry, whose asymmetry is NaN or infinite."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix, got shape %s" % (a.shape,))
    gap = np.max(np.abs(a - a.T)) if a.size else 0.0
    if not gap <= tol:
        if not np.isfinite(a).all():
            raise ValueError("matrix must not contain infs or NaNs")
        raise ValueError(
            "matrix is asymmetric beyond tolerance (max |a - a.T| = %.3g > %.3g)"
            % (gap, tol)
        )
    return 0.5 * (a + a.T)


def is_positive_definite(a, tol=PD_TOL):
    """True iff the smallest eigenvalue of the symmetrized input exceeds ``tol``.

    Decided by one Cholesky factorisation of the symmetrized input minus
    ``tol`` times the identity; an input with a NaN or infinite entry is not
    positive definite.  Raises ``ValueError`` when the input is asymmetric
    beyond the symmetry tolerance; symmetrization only absorbs roundoff, not
    modelling errors.
    """
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        return False
    s = symmetrize(a)
    try:
        np.linalg.cholesky(s - tol * np.eye(s.shape[0]))
    except np.linalg.LinAlgError:
        return False
    return True


def _lag_block(blocks, l):
    """Block l of a lag sequence B_0..B_m, for -m <= l <= m, with B_{-l} = B_l^T."""
    return blocks[l] if l >= 0 else blocks[-l].T


def _toeplitz_lags(m):
    """(m+1, m+1) lag index s - r + m of block (r, s) of a block Toeplitz matrix."""
    return np.arange(m + 1) - np.arange(m + 1)[:, None] + m


def _block_toeplitz(stack):
    """(m+1)a x (m+1)b matrix whose block (r, s) is stack[..., s - r + m, :, :], from a
    (..., 2m+1, a, b) lag stack; leading axes are kept."""
    *lead, n_lag, a, b = stack.shape
    k1 = (n_lag + 1) // 2
    out = stack[..., _toeplitz_lags(k1 - 1), :, :]
    return np.swapaxes(out, -3, -2).reshape(*lead, k1 * a, k1 * b)


def _fold_lags(a, k):
    """Adjoint of :func:`_block_toeplitz` on a (k+1)d square matrix: the (2k+1, d, d)
    stack whose entry k + l sums the blocks (r, r + l) of ``a``."""
    d = a.shape[0] // (k + 1)
    out = np.zeros((2 * k + 1, d, d))
    np.add.at(out, _toeplitz_lags(k), a.reshape(k + 1, d, k + 1, d).transpose(0, 2, 1, 3))
    return out


def _mirror_lags(blocks):
    """(2m+1, a, a) stack B_{-m}..B_m of lags B_0..B_m with B_{-l} = B_l^T."""
    return np.stack([b.T for b in blocks[:0:-1]] + list(blocks))


def _lag_toeplitz(blocks):
    """:func:`_block_toeplitz` of lags B_0..B_m with B_{-l} = B_l^T: block (r, s) is B_{s-r}."""
    return _block_toeplitz(_mirror_lags(blocks))


def _singular_block(n, pivot):
    return np.linalg.LinAlgError("singular conditioning block (%d indices): pivot %d of its "
                                 "LDL^T factor is zero" % (n, pivot))


def gaussian_condition(cov, head, tail):
    """Conditional law of the ``head`` block of a Gaussian given the ``tail`` block.

    Parameters
    ----------
    cov : ndarray
        Symmetric covariance matrix.
    head, tail : sequence of int
        Disjoint index lists selecting the conditioned and conditioning
        coordinates.  ``tail`` may be empty, in which case the marginal
        covariance of ``head`` is returned with a zero-width coefficient.

    Returns
    -------
    coeff : ndarray, shape (len(head), len(tail))
        Regression coefficient Sigma_{head,tail} Sigma_{tail}^{-1}; the
        conditional mean is ``coeff @ x_tail``.
    cond_cov : ndarray, shape (len(head), len(head))
        Schur complement Sigma_{head} - coeff Sigma_{tail,head}.

    The coefficient comes from one LDL^T (Bunch-Kaufman) factorization of
    Sigma_{tail}, ``sytrf`` then ``sytrs`` on its upper triangle, as
    ``scipy.linalg.solve(assume_a="sym")`` solves, or from a division when
    the tail is one index; the explicit inverse is never formed.  A NaN or
    infinite entry anywhere in ``cov`` raises ValueError (:func:`symmetrize`), a
    singular Sigma_{tail} raises LinAlgError, and a reciprocal condition
    number below machine epsilon warns ``LinAlgWarning``.
    """
    cov = symmetrize(cov)
    head = np.asarray(head, dtype=int)
    tail = np.asarray(tail, dtype=int)
    if not set(head.tolist()).isdisjoint(tail.tolist()):
        raise ValueError("head and tail index sets overlap")
    if tail.size == 0:
        return np.zeros((head.size, 0)), cov[np.ix_(head, head)]
    h, both = head.size, np.concatenate([head, tail])
    block = cov[np.ix_(both, both)]  # one gather; the three blocks are views of it
    s_hh, s_ht, s_tt = block[:h, :h], block[:h, h:], block[h:, h:]
    n = tail.size
    if n == 1:  # scipy's solve divides too, with no factor and no condition estimate
        if s_tt[0, 0] == 0.0:
            raise _singular_block(1, 1)
        coeff = s_ht / s_tt[0, 0]
    else:
        # scipy passes the queried workspace, which selects LAPACK's blocked code (other bits)
        # on blocks larger than its block size
        ldu, piv, info = dsytrf(s_tt, lwork=int(dsytrf_lwork(n)[0]))
        if info > 0:
            raise _singular_block(n, info)
        # scipy returns a C-ordered solution; its layout sets the product's bits below
        coeff = np.ascontiguousarray(dsytrs(ldu, piv, s_ht.T)[0]).T
        rcond = dsycon(ldu, piv, dlange("1", s_tt))[0]
        if rcond < np.finfo(float).eps:
            warnings.warn("ill-conditioned conditioning block (%d indices): rcond = %.3g"
                          % (n, rcond), LinAlgWarning, stacklevel=2)
    cond_cov = s_hh - coeff @ s_ht.T
    return coeff, 0.5 * (cond_cov + cond_cov.T)
