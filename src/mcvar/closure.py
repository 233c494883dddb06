"""Margin-closed cross-dependence construction for Gaussian VAR(k) models.

A model is specified by a partition of the d variables into sub-processes, a
correlation structure per sub-process, a condition label in {1, 2} per
sub-process, and one fixed cross block per pair.  This module solves for the
remaining cross-correlation blocks so that every sub-process of the assembled
joint process is itself a VAR(k), assembles the full correlation matrix, and
verifies the closure property on any given matrix.

Lag convention: ``Sigma_{ij,l} = corr(Z_{S_i,t}, Z_{S_j,t-l})`` so that
``Sigma_{ji,l} = Sigma_{ij,-l}.T``.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgecon, dgetrf, dgetrs, dpotrs

from ._document import _integer, _integers, _list
from .linalg import (
    _block_toeplitz,
    _lag_block,
    _lag_toeplitz,
    _mirror_lags,
    gaussian_condition,
    is_positive_definite,
)
from .varprocess import durbin_levinson, whittle_recursion

# 1-norm condition number (LAPACK's gecon estimate from the LU factors) above
# which the stacked cross-block system is treated as degenerate rather than
# solved.
CONDITION_LIMIT = 1e12

__all__ = [
    "Partition",
    "SubprocessCorr",
    "CrossFixedBlock",
    "CrossSolution",
    "DegenerateCrossPair",
    "fixed_lag_for_labels",
    "solve_cross_pair",
    "assemble_full_R",
    "SubprocessClosure",
    "ClosureReport",
    "verify_closure",
    "coefficient_block_zeros",
]


class DegenerateCrossPair(np.linalg.LinAlgError):
    """A pair's cross-block system is numerically singular or cannot be built."""

    def __init__(self, pair, reason):
        self.pair = pair
        super().__init__(
            "cross-block system for sub-process pair %s is degenerate (%s)" % (pair, reason)
        )


@dataclass(frozen=True)
class Partition:
    """Ordered disjoint index sets S_1..S_n covering 0..d-1."""

    sets: tuple
    d: int

    def __post_init__(self):
        sets = tuple(_integers(s, "partition") for s in _list(self.sets, "partition"))
        object.__setattr__(self, "sets", sets)
        seen = []
        for s in sets:
            if len(s) == 0 or list(s) != sorted(set(s)):
                raise ValueError("model field 'partition' must hold non-empty sets of strictly "
                                 "increasing indices, got %r" % (list(s),))
            seen.extend(s)
        if sorted(seen) != list(range(self.d)):
            raise ValueError("model field 'partition' must cover 0..%d exactly once"
                             % (self.d - 1))

    @property
    def n(self):
        return len(self.sets)

    def complement(self, i):
        own = set(self.sets[i])
        return tuple(v for v in range(self.d) if v not in own)


def _partition(value):
    """The Partition of a document's ``partition``: lists of integers naming d variables."""
    sets = tuple(_integers(s, "partition") for s in _list(value, "partition"))
    return Partition(sets=sets, d=sum(map(len, sets)))


@dataclass(frozen=True)
class SubprocessCorr:
    """Correlation blocks Sigma_{ii,0}..Sigma_{ii,k} of one sub-process."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(np.atleast_2d(np.asarray(b, dtype=float)) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if not blocks:
            raise ValueError("need at least the lag-0 block")
        d = blocks[0].shape[0]
        for b in blocks:
            if b.shape != (d, d):
                raise ValueError("all lag blocks must be %d x %d" % (d, d))
        b0 = blocks[0]
        if np.max(np.abs(b0 - b0.T)) > 1e-8:
            raise ValueError("lag-0 block must be symmetric")
        if np.max(np.abs(np.diag(b0) - 1.0)) > 1e-8:
            raise ValueError("lag-0 block must have unit diagonal (correlation scale)")

    @property
    def dim(self):
        return self.blocks[0].shape[0]

    @property
    def order(self):
        return len(self.blocks) - 1

    def block(self, l):
        """Sigma_{ii,l} for -k <= l <= k (negative lags by transpose)."""
        if abs(l) > self.order:
            raise ValueError("lag %d beyond order %d" % (l, self.order))
        return _lag_block(self.blocks, l)

    def toeplitz(self):
        """(k+1)d x (k+1)d block Toeplitz correlation matrix of k+1 slices."""
        return _lag_toeplitz(self.blocks)


def fixed_lag_for_labels(labels, k):
    """Lag of the pair's fixed cross block: 0, -k, or +k depending on the labels."""
    ci, cj = labels
    if ci not in (1, 2) or cj not in (1, 2):
        raise ValueError("condition labels must be 1 or 2, got %s" % (labels,))
    if ci == cj:
        return 0
    return -k if (ci, cj) == (1, 2) else k


@dataclass(frozen=True)
class CrossFixedBlock:
    """The one free cross-dependence parameter of a pair (i, j) with i < j."""

    pair: tuple
    lag: int
    value: np.ndarray

    def __post_init__(self):
        i, j = _integers(self.pair, "cross_fixed pair", 2, "sub-process")
        if not i < j:
            raise ValueError("model field 'cross_fixed pair' must satisfy i < j, got %s"
                             % (self.pair,))
        object.__setattr__(self, "pair", (i, j))
        object.__setattr__(self, "lag", _integer(self.lag, "cross_fixed lag"))
        object.__setattr__(self, "value", np.atleast_2d(np.asarray(self.value, dtype=float)))


@dataclass(frozen=True)
class CrossSolution:
    """All 2k+1 cross blocks Sigma_{ij,-k}..Sigma_{ij,k} of a pair (i, j)."""

    pair: tuple
    order: int
    blocks: tuple  # index l + k holds Sigma_{ij,l}

    def block(self, l):
        if abs(l) > self.order:
            raise ValueError("lag %d beyond order %d" % (l, self.order))
        return self.blocks[l + self.order]


def _predictor_band(state, label):
    """The predictor band [P_k, ..., P_1] (d, kd) of a :func:`whittle_recursion`
    state: its forward predictors Phi (label 1) or backward predictors Psi (label 2)."""
    return np.hstack(state["forward" if label == 1 else "backward"][::-1])


def solve_cross_pair(ri, rj, labels, fixed):
    """Solve the cross blocks Sigma_{ij,-k}..Sigma_{ij,k} of one pair.

    Parameters
    ----------
    ri, rj : SubprocessCorr
        Sub-process structures of equal order k.
    labels : (int, int)
        Condition labels (c_i, c_j).
    fixed : CrossFixedBlock
        The pair's fixed block; its lag must match the labels (0 for equal
        labels, -k for (1, 2), +k for (2, 1)).

    For mixed labels all non-fixed blocks are identically zero and are set,
    not solved.  For equal labels the remaining 2k blocks follow from the
    fixed block and k-1 others, which solve a (k-1) d_i d_j linear system
    (:func:`_solve_equal_labels`).
    """
    return _cross_solutions(dict(zip(fixed.pair, (ri, rj))), dict(zip(fixed.pair, labels)),
                            [fixed])[0]


def _cross_solutions(subs, labels, fixed_blocks):
    """:func:`solve_cross_pair` for every fixed block, whose pair (i, j) indexes
    ``subs`` and ``labels``: the blocks are checked against the labels and
    sub-processes, then all pairs are solved by one :func:`_solve_pairs`."""
    for fixed in fixed_blocks:
        (i, j), k = fixed.pair, subs[fixed.pair[0]].order
        if subs[j].order != k:
            raise ValueError("sub-process orders differ: %d vs %d" % (k, subs[j].order))
        want = fixed_lag_for_labels((labels[i], labels[j]), k)
        if fixed.lag != want:
            raise ValueError(
                "labels %s fix the lag-%d block, got a lag-%d block"
                % ((labels[i], labels[j]), want, fixed.lag)
            )
        if fixed.value.shape != (subs[i].dim, subs[j].dim):
            raise ValueError(
                "fixed block shape %s, expected (%d, %d)"
                % (fixed.value.shape, subs[i].dim, subs[j].dim)
            )
    pairs = [fb.pair for fb in fixed_blocks]
    stacks = {c: _mirror_lags(subs[c].blocks) for c in set(sum(pairs, ()))}
    solved, _ = _solve_pairs(stacks, labels, pairs, [fb.value for fb in fixed_blocks])
    return [CrossSolution(pair=fb.pair, order=len(stack) // 2, blocks=tuple(stack))
            for fb, stack in zip(fixed_blocks, solved)]


def _solve_pairs(stacks, labels, pairs, values):
    """The one pair loop: the (2k+1, d_i, d_j) cross stacks Sigma_{ij,-k}..Sigma_{ij,k}
    of index pairs (i, j) into the sub-process lag stacks ``stacks`` and
    ``labels``, from each pair's fixed block in ``values``, and ``tangent``.

    A mixed-label pair has its fixed block at its lag and zeros elsewhere.
    Each sub-process's predictor band is built once, when its first
    equal-label pair needs it, by a :func:`whittle_recursion` whose factor the
    tangents reuse; a sub-process that is not positive definite, like a
    singular system, raises DegenerateCrossPair.  ``tangent(dstacks)``
    takes (n_c, 2k+1, d_c, d_c) tangents of every sub-process's stack (n_c = 0
    for one held fixed) and returns per pair the stack's tangents along those
    of i, of j and of the entries of its fixed block in row-major order.
    """
    mats, out = {}, []
    for (i, j), value in zip(pairs, values):
        k = len(stacks[i]) // 2
        if labels[i] != labels[j]:
            stack = np.zeros((2 * k + 1,) + value.shape)
            stack[k + fixed_lag_for_labels((labels[i], labels[j]), k)] = value
            out.append((stack, None))
            continue
        for c in (i, j):
            if c not in mats:
                try:
                    state = whittle_recursion(stacks[c][k:], k)
                except np.linalg.LinAlgError as exc:
                    raise DegenerateCrossPair(
                        (i, j), "sub-process %d is not positive definite: %s" % (c, exc)
                    ) from exc
                mats[c] = (_predictor_band(state, labels[c]), state["factor"])
        out.append(_solve_equal_labels(mats[i][0], mats[j][0], labels[i], value, (i, j)))

    def tangent(dstacks):
        bands = {}
        for c, (band, factor) in mats.items():
            bands[c] = (_band_tangent(factor, band, labels[c], dstacks[c])
                        if len(dstacks[c]) else np.zeros((0,) + band.shape))
        tangents = []
        for (i, j), (stack, pair_tangent) in zip(pairs, out):
            if pair_tangent is not None:
                tangents.append(pair_tangent(bands[i], bands[j]))
                continue
            k = len(stack) // 2
            lag = k + fixed_lag_for_labels((labels[i], labels[j]), k)
            dfix = np.zeros((stack[lag].size,) + stack.shape)
            dfix[:, lag] = np.eye(len(dfix)).reshape(dfix[:, lag].shape)
            tangents.append((np.zeros((len(dstacks[i]),) + stack.shape),
                             np.zeros((len(dstacks[j]),) + stack.shape), dfix))
        return tangents

    return [stack for stack, _ in out], tangent


def _solve_equal_labels(band_i, band_j, label, value, pair):
    """Cross blocks of an equal-label pair from its predictor bands and fixed block.

    Returns the (2k+1, d_i, d_j) stack Sigma_{ij,-k}..Sigma_{ij,k} and its
    ``tangent``.  Every condition row gives one lag of a side's stack from the
    k next to it (:func:`_predict_lags`): side i's rows give Sigma_{ij,1..k}
    from Sigma_{ij,0} and x = Sigma_{ij,-1..-(k-1)} (label 1), and side j's
    rows, on D_ji, then give Sigma_{ij,-1..-k}.  The conditions hold exactly
    when side j returns x: (I - K) x = c, a (k-1) d_i d_j system, with K the
    response to unit x and c the response to the fixed block alone.  Label 2
    is the same with the lags mirrored.  One batched pass gives the responses
    to unit x and to the fixed block, so the stack is the latter plus the
    former times x.  I - K is factorised once (LAPACK getrf); its 1-norm
    condition estimate (gecon) relative to 1 + |K|_1, which also counts the
    cancellation in forming I - K, is tested against CONDITION_LIMIT.  At
    k = 1 there is no x and no system.
    """
    di, dj = value.shape
    k = band_i.shape[1] // di
    free = slice(1, k) if label == 1 else slice(k + 1, 2 * k)
    size = (k - 1) * di * dj

    def predict(s, forcing_i=None, forcing_j=None):
        """The (2k+1, d_i, n, d_j) stacks of n directions whose lag 0 and x are set in s,
        side i's rows forced by (k, d_i, n d_j) forcing_i and side j's by (k, d_j, n d_i)."""
        _predict_lags(band_i, label, s.reshape(2 * k + 1, di, -1), forcing_i)
        d_ji = s[::-1].transpose(0, 3, 2, 1).copy()
        _predict_lags(band_j, label, d_ji.reshape(2 * k + 1, dj, -1), forcing_j)
        return d_ji[::-1].transpose(0, 3, 2, 1)

    def closing(out):
        """The (k-1) d_i d_j x n values of x that make side j return them, from the
        n stacks ``out`` that :func:`predict` gave with x = 0: one getrs."""
        return dgetrs(lu, piv, out[free].transpose(0, 1, 3, 2).reshape(size, -1))[0]

    # one pass for the responses to unit x (K is their x rows) and to the fixed block
    eye = np.eye(size)
    s = np.zeros((2 * k + 1, di, size + 1, dj))
    s[free, :, :size] = eye.reshape(k - 1, di, dj, size).transpose(0, 1, 3, 2)
    s[k, :, size] = value
    out = predict(s)
    stack = out[:, :, size]
    if size:
        responses = out[:, :, :size]
        kx = responses[free].transpose(0, 1, 3, 2).reshape(size, size)
        lu, piv, _ = dgetrf(eye - kx, overwrite_a=1)
        rcond = dgecon(lu, 1.0 + np.abs(kx).sum(axis=0).max())[0]
        cond = 1.0 / rcond if rcond > 0.0 else np.inf
        if cond > CONDITION_LIMIT:
            raise DegenerateCrossPair(
                pair, "condition number %.3g exceeds %.3g" % (cond, CONDITION_LIMIT)
            )
        stack = stack + responses.transpose(0, 1, 3, 2) @ closing(out[:, :, size:])[:, 0]

    def tangent(dband_i, dband_j):
        """Tangents of the stack along (n_i, di, k di) and (n_j, dj, k dj) tangents of the
        predictor bands [P_k, ..., P_1] of sub-processes i and j, and along each entry of
        the fixed block in row-major order: (n_i, 2k+1, di, dj), (n_j, ...), (di dj, ...).

        Differentiating the conditions A_i D_ij = 0 and A_j D_ji = 0 at the solution
        gives the same rows for the tangent stack, with row m of side i forced by
        row m of dA_i D_ij (:func:`_band_product`), of side j by row m of dA_j D_ji,
        and lag 0 set to the fixed block's direction.  All directions go through
        :func:`predict` with x = 0, one getrs for their x and :func:`predict` again.
        """
        n_i, n_j, step = len(dband_i), len(dband_j), di * dj
        n = n_i + n_j + step
        s = np.zeros((2 * k + 1, di, n, dj))
        s[k, :, n_i + n_j:] = np.eye(step).reshape(step, di, dj).transpose(1, 0, 2)
        forcing_i = forcing_j = None  # a side with no directions is not forced
        if n_i:
            forcing_i = np.zeros((k, di, n, dj))
            forcing_i[:, :, :n_i] = _band_product(dband_i, stack).reshape(
                n_i, k, di, dj).transpose(1, 2, 0, 3)
            forcing_i = forcing_i.reshape(k, di, -1)
        if n_j:
            forcing_j = np.zeros((k, dj, n, di))
            forcing_j[:, :, n_i:n_i + n_j] = _band_product(
                dband_j, stack[::-1].transpose(0, 2, 1)).reshape(
                n_j, k, dj, di).transpose(1, 2, 0, 3)
            forcing_j = forcing_j.reshape(k, dj, -1)
        out = predict(s, forcing_i, forcing_j)
        if size:
            s[free] = closing(out).reshape(k - 1, di, dj, n).transpose(0, 1, 3, 2)
            out = predict(s, forcing_i, forcing_j)
        out = out.transpose(2, 0, 1, 3)
        return out[:n_i], out[n_i:n_i + n_j], out[n_i + n_j:]

    return stack, tangent


def _predict_lags(band, label, stack, forcing=None):
    """Set in place the k lags of a (2k+1, d, n) lag stack that one side's condition
    rows give from its predictor band: row m sets stack[k+1+m] (label 1, ascending m)
    or stack[m] (label 2, descending m) to band @ stack[m+1..m+k] + forcing[m]."""
    k = len(stack) // 2
    for m in range(k) if label == 1 else range(k - 1, -1, -1):
        row = stack[k + 1 + m if label == 1 else m]
        np.matmul(band, stack[m + 1:m + k + 1].reshape(-1, stack.shape[2]), out=row)
        if forcing is not None:
            row += forcing[m]


def _band_product(dband, stack):
    """Block rows m = 0..k-1 of dA @ D for a condition matrix tangent dA with
    predictor band tangents ``dband`` (n, d, kd) and a (2k+1, d, e) lag stack D:
    (n, kd, e), row block m being dband @ [D_{m+1-k}; ...; D_m]."""
    (n, d, _), k, e = dband.shape, stack.shape[0] // 2, stack.shape[2]
    windows = np.stack([stack[m + 1:m + k + 1].reshape(-1, e) for m in range(k)])
    return np.einsum("npq,mqr->nmpr", dband, windows).reshape(n, k * d, e)


def _band_tangent(factor, band, label, dstack):
    """Tangents (n, d, kd) of a sub-process's predictor band [P_k, ..., P_1] along
    tangents ``dstack`` (n, 2k+1, d, d) of its lag stack Sigma_{-k}..Sigma_k.

    The band is g T^-1 with T the k-slice Toeplitz matrix of (Z_{t-k}, ..., Z_{t-1}),
    block (r, s) = Sigma_{r-s}, and g = [Sigma_k, ..., Sigma_1] (forward, label 1) or
    [Sigma_{-1}, ..., Sigma_{-k}] (backward, label 2); so d band = (dg - band dT) T^-1.
    T is the block reversal of the newest-first window matrix whose Cholesky factor
    :func:`whittle_recursion` returned (``factor``): the right-hand side is reversed,
    solved with that factor and reversed back.
    """
    n, n_lag, d, _ = dstack.shape
    k = n_lag // 2
    g = dstack[:, 2 * k:k:-1] if label == 1 else dstack[:, k - 1::-1]
    rhs = g.transpose(0, 2, 1, 3).reshape(n, d, k * d) - band @ _block_toeplitz(dstack[:, -2:0:-1])
    rev = rhs.reshape(n * d, k, d)[:, ::-1].reshape(n * d, k * d)
    x = dpotrs(factor, rev.T, lower=1)[0].T
    return x.reshape(n, d, k, d)[:, :, ::-1].reshape(n, d, k * d)


def assemble_full_R(partition, subs, crosses):
    """Assemble the time-major correlation matrix of (Z_t, Z_{t-1}, ..., Z_{t-k}).

    Block (r, s) of the (k+1)d x (k+1)d result is Gamma(s - r) of
    :func:`_lag_stack`, with the d variables in natural order in each slice.
    """
    return _block_toeplitz(_lag_stack(partition, subs, crosses))


def _lag_stack(partition, subs, crosses):
    """(2k+1, d, d) stack whose entry k + l is Gamma(l) = corr(Z_t, Z_{t-l}).

    Each sub-process's Sigma_{ii,l} and each pair's Sigma_{ij,l} and
    Sigma_{ji,l} = Sigma_{ij,-l}^T go into Gamma(0..k) by index placement;
    the negative lags mirror them, Gamma(-l) = Gamma(l)^T.
    """
    n = partition.n
    if len(subs) != n:
        raise ValueError("expected %d sub-process structures, got %d" % (n, len(subs)))
    by_pair = {}
    for c in crosses:
        by_pair[c.pair] = c
    k = subs[0].order
    for i, (s, r) in enumerate(zip(partition.sets, subs)):
        if r.dim != len(s):
            raise ValueError("sub-process %d has dim %d but %d indices" % (i, r.dim, len(s)))
        if r.order != k:
            raise ValueError("sub-process orders differ")

    sets = [np.array(s) for s in partition.sets]
    out = np.zeros((2 * k + 1, partition.d, partition.d))
    for i, (s, r) in enumerate(zip(sets, subs)):
        out[:, s[:, None], s] = _mirror_lags(r.blocks)
        for j in range(i + 1, n):
            if (i, j) not in by_pair:
                raise ValueError("missing cross solution for pair (%d, %d)" % (i, j))
            sol = by_pair[(i, j)]
            if sol.order != k:
                raise ValueError("cross solution order mismatch for pair (%d, %d)" % (i, j))
            _place_cross(out, s, sets[j], np.stack(sol.blocks))
    return out


def _place_cross(out, s, t, stack):
    """Write a pair's (..., 2k+1, d_i, d_j) stack Sigma_{ij,-k}..Sigma_{ij,k} into the
    (..., 2k+1, d, d) lag stack ``out`` at rows s, columns t, and its mirror
    Sigma_{ji,l} = Sigma_{ij,-l}^T at rows t, columns s."""
    out[..., s[:, None], t] = stack
    out[..., t[:, None], s] = np.swapaxes(stack[..., ::-1, :, :], -1, -2)


@dataclass(frozen=True)
class SubprocessClosure:
    """Closure diagnostics for one sub-process."""

    indices: tuple
    cond1_residual: float
    cond2_residual: float
    markov_residual: float
    holds: object  # 1, 2, or None

    @property
    def passed(self):
        return self.holds is not None


@dataclass(frozen=True)
class ClosureReport:
    subs: tuple
    tol: float

    @property
    def all_pass(self):
        return all(s.passed for s in self.subs)

    def __str__(self):
        lines = []
        for s in self.subs:
            verdict = "condition %s holds" % s.holds if s.passed else "closure fails"
            lines.append(
                "S=%s: %s (cond1 %.3g, cond2 %.3g, markov %.3g)"
                % (
                    "{" + ",".join(str(v + 1) for v in s.indices) + "}",
                    verdict,
                    s.cond1_residual,
                    s.cond2_residual,
                    s.markov_residual,
                )
            )
        return "\n".join(lines)


def verify_closure(r, partition, k, tol=1e-8):
    """Check the two sufficient closure conditions on a time-major correlation matrix.

    The matrix is extended to k+2 time slices through the implied VAR
    autocovariances.  Each sub-process then takes one conditioning: the
    covariance of Z_{S_i,t}, Z_{S_i,t-k-1} and the other sub-processes'
    intermediates Z_{-S_i,t-1..t-k}, given the sub-process's own
    intermediates Z_{S_i,t-1..t-k}.  Three off-diagonal blocks of that one
    Schur complement are the residuals, each its largest absolute entry:

    * condition 1: Z_{S_i,t} against the others' intermediates;
    * condition 2: the same with Z_{S_i,t-k-1} in place of Z_{S_i,t};
    * the Markov residual between Z_{S_i,t} and Z_{S_i,t-k-1} (zero when
      the sub-process is Markov of order <= k).

    With a single partition set there are no other intermediates, and both
    condition residuals are 0.0.  A sub-process passes when either
    condition's residual is below ``tol``.
    """
    d = partition.d
    r = np.asarray(r, dtype=float)
    if not is_positive_definite(r):
        raise np.linalg.LinAlgError("correlation matrix is not positive definite")
    slices = [r[:d, l * d:(l + 1) * d] for l in range(k + 1)]
    var = durbin_levinson(slices, k)
    slices.append(sum((var.phi[m] @ slices[k - m] for m in range(k)), np.zeros((d, d))))
    big = _lag_toeplitz(slices)

    reports = []
    for i, s in enumerate(partition.sets):
        own = list(s)
        n = len(own)
        far = [(k + 1) * d + v for v in own]
        v_idx = [r_ * d + v for r_ in range(1, k + 1) for v in own]
        w_idx = [r_ * d + w for r_ in range(1, k + 1) for w in partition.complement(i)]
        _, cc = gaussian_condition(big, own + far + w_idx, v_idx)
        # initial=0.0 gives the empty w blocks of a one-set partition a zero residual
        c1 = float(np.abs(cc[:n, 2 * n:]).max(initial=0.0))
        c2 = float(np.abs(cc[n:2 * n, 2 * n:]).max(initial=0.0))
        mk = float(np.abs(cc[:n, n:2 * n]).max())
        holds = 1 if c1 < tol else (2 if c2 < tol else None)
        reports.append(
            SubprocessClosure(
                indices=tuple(own),
                cond1_residual=c1,
                cond2_residual=c2,
                markov_residual=mk,
                holds=holds,
            )
        )
    return ClosureReport(subs=tuple(reports), tol=tol)


def coefficient_block_zeros(labels, var, partition, tol=1e-8):
    """True iff every label-1 sub-process has zero coefficients on the others.

    For each S_i with c_i = 1, the blocks Phi_{l}[S_i, S_j] for j != i must
    vanish at every lag; label-2 sub-processes impose nothing (vacuous truth).
    """
    for i, s in enumerate(partition.sets):
        if labels[i] != 1:
            continue
        other = list(partition.complement(i))
        if not other:
            continue
        for p in var.phi:
            if np.max(np.abs(p[np.ix_(list(s), other)])) > tol:
                return False
    return True
