"""Model container and multi-stage quasi maximum likelihood estimation.

The model couples arbitrary continuous margins to a stationary Gaussian
VAR(k) copula whose correlation structure is margin-closed.  The likelihood
splits into a latent Gaussian term plus a margin correction that does not
depend on the dependence parameters, so the dependence stages optimize the
latent term alone, on latent scores computed once per fit:

* stage 1 fits each margin separately,
* stage 2 fits each sub-process's own correlation blocks,
* stage 3 fits the fixed cross block of every pair jointly,
* stage 4 (optional) refines all dependence parameters from the warm start.
"""

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import linalg as sla
from scipy.linalg.lapack import dtrtri
from scipy.special import chdtrc

from .closure import (
    CrossFixedBlock,
    CrossSolution,
    Partition,
    SubprocessCorr,
    _cross_solutions,
    _partition,
    _place_cross,
    _solve_pairs,
    assemble_full_R,
    fixed_lag_for_labels,
    solve_cross_pair,  # not called here; bench/smoke.py checks that the tracer wraps this binding
)
from ._document import _blocks, _choice, _integer, _integers, _key, _labels, _list
from .linalg import _block_toeplitz, _fold_lags, _mirror_lags, symmetrize
from .margins import (FAMILY_PARAMS, MarginSpec, _logit_table, _margin, fit_margin,
                      from_normal, logpdf as margin_logpdf, pit_to_normal)
from .optim import minimize
from .varprocess import _in_chunks, durbin_levinson, simulate

_LOG_2PI = float(np.log(2.0 * np.pi))

__all__ = [
    "ModelConfig",
    "Model",
    "construct_model",
    "FittedModel",
    "SubprocessFit",
    "StageFit",
    "LagGram",
    "lag_gram",
    "gaussian_var_loglik",
    "latent_residuals",
    "latent_scores",
    "loglik_full",
    "fit_stage2",
    "fit_stage3",
    "fit_stage4",
    "fit_model",
    "count_params",
    "portmanteau",
    "simulate_model",
]


@dataclass(frozen=True)
class ModelConfig:
    """Structural choices: partition, condition labels, order, margin families,
    checked as :meth:`Model.from_dict` checks a document (ValueError naming the field);
    each margin family must be a name in FAMILY_PARAMS."""

    partition: Partition
    labels: tuple
    k: int
    margin_families: tuple

    def __post_init__(self):
        object.__setattr__(self, "labels", _labels(self.labels, self.partition.n))
        object.__setattr__(self, "k", _integer(self.k, "k", least=1))
        object.__setattr__(self, "margin_families", tuple(
            _choice(f, "margin_families", FAMILY_PARAMS, "name a margin family", i)
            for i, f in enumerate(_list(self.margin_families, "margin_families",
                                        self.partition.d, "variable"))))


def _computed_once(method):
    """Keep the first result of a no-argument method in the instance ``__dict__``.

    As :class:`functools.cached_property` does, the value is written to the
    ``__dict__`` directly, so a frozen dataclass needs no ``__setattr__``; it is
    kept under the method's name with a leading underscore, and every later
    call returns that same object.
    """
    key = "_" + method.__name__

    @functools.wraps(method)
    def once(self):
        try:
            return self.__dict__[key]
        except KeyError:
            value = self.__dict__[key] = method(self)
            return value

    return once


@dataclass(frozen=True)
class Model:
    """A fully specified margin-closed model.

    ``margins`` follows the natural variable order 0..d-1; ``subs`` and
    ``crosses`` follow the partition (pairs in lexicographic order).
    :meth:`time_major_R` and :meth:`var` are computed on their first call
    and kept; the arrays they return are read-only, so no caller can alter
    what later callers get.
    """

    partition: Partition
    labels: tuple
    k: int
    margins: tuple
    subs: tuple
    crosses: tuple

    @_computed_once
    def time_major_R(self):
        """Correlation matrix of (Z_t, ..., Z_{t-k}), from :func:`assemble_full_R`."""
        r = assemble_full_R(self.partition, self.subs, self.crosses)
        r.flags.writeable = False
        return r

    @_computed_once
    def var(self):
        """Implied VAR(k) coefficients on the latent (correlation) scale, from
        Gamma(0..k), the first block row of :meth:`time_major_R`."""
        r, d = self.time_major_R(), self.partition.d
        return durbin_levinson([r[:d, l * d:(l + 1) * d] for l in range(self.k + 1)], self.k)

    def to_dict(self):
        return {
            "k": self.k,
            "partition": [list(s) for s in self.partition.sets],
            "labels": list(self.labels),
            "margins": [m.to_dict() for m in self.margins],
            "subprocess_corrs": [
                {"blocks": [b.tolist() for b in sub.blocks]} for sub in self.subs
            ],
            "crosses": [
                {
                    "pair": list(c.pair),
                    "blocks": [b.tolist() for b in c.blocks],
                }
                for c in self.crosses
            ],
        }

    @classmethod
    def from_dict(cls, d):
        """Inverse of :meth:`to_dict`, and the reader of a ``construct`` config,
        which holds ``cross_fixed`` in place of ``crosses``: per pair i < j one
        finite d_i x d_j ``value`` at the ``lag`` its labels fix, from which
        :func:`construct_model` solves the crosses.  A document with both or
        neither, a missing field, a bool or non-integer ``k``, label, partition
        index, pair index or lag, a ``k`` below 1, a label other than 1 or 2, a
        count of labels, margins, sub-processes, crosses or fixed blocks that
        does not match the partition, a field or entry of the wrong type, a pair
        not i < j within it or named twice, a lag other than its labels fix, an
        entry without its pair, lag, value or blocks, and lag blocks that are
        not k+1 (sub-process) or 2k+1 (cross) finite d_i x d_j blocks raise
        ValueError naming the field and the entry."""
        part = _partition(_key(d, "partition"))
        k = _integer(_key(d, "k"), "k", least=1)
        labels = _labels(_key(d, "labels"), part.n)
        blocks = _list(_key(d, "subprocess_corrs"), "subprocess_corrs", part.n, "partition set")
        subs = tuple(_subprocess(e, i, k, len(s))
                     for i, (e, s) in enumerate(zip(blocks, part.sets)))
        margins = tuple(_margin(m, i) for i, m in
                        enumerate(_list(_key(d, "margins"), "margins", part.d, "variable")))
        fixed = "cross_fixed" in d
        if fixed == ("crosses" in d):
            raise ValueError("model fields 'crosses' and 'cross_fixed': a document needs "
                             "exactly one, got %s" % ("both" if fixed else "neither"))
        name, pairs, entries = ("cross_fixed" if fixed else "crosses"), _pair_list(part.n), {}
        for n, e in enumerate(_list(d[name], name, len(pairs), "pair of partition sets")):
            field = functools.partial(_key, e, name=name, i=n)
            pair = _integers(field("pair"), name + " pair", i=n)
            if pair not in pairs or pair in entries:
                raise ValueError("model field '%s pair' entry %d must name each pair i < j of "
                                 "the partition once, got %r" % (name, n, list(pair)))
            shape = (len(part.sets[pair[0]]), len(part.sets[pair[1]]))
            if fixed:
                lag = _integer(field("lag"), "cross_fixed lag", n)
                if lag != fixed_lag_for_labels((labels[pair[0]], labels[pair[1]]), k):
                    raise ValueError("model field 'cross_fixed lag' entry %d: %d does not match "
                                     "the labels of pair %r" % (n, lag, list(pair)))
                entries[pair] = CrossFixedBlock(pair, lag,
                                                _blocks([field("value")], name, 1, shape, n)[0])
            else:
                entries[pair] = CrossSolution(pair, k,
                                              _blocks(field("blocks"), name, 2 * k + 1, shape, n))
        if fixed:
            return construct_model(part, labels, k, margins, subs, entries.values())
        return cls(partition=part, labels=labels, k=k, margins=margins, subs=subs,
                   crosses=tuple(entries.values()))


def _subprocess(entry, i, k, dim):
    """Sub-process i of a model document, k+1 finite dim x dim lag blocks."""
    blocks = _blocks(_key(entry, "blocks", "subprocess_corrs", i), "subprocess_corrs", k + 1,
                     (dim, dim), i)
    try:
        return SubprocessCorr(blocks=blocks)
    except ValueError as exc:  # a lag-0 block that is not a correlation matrix
        raise ValueError("model field 'subprocess_corrs' entry %d: %s" % (i, exc)) from None


def construct_model(partition, labels, k, margins, subs, fixed_blocks):
    """Build a model by solving every pair's cross blocks from its fixed block."""
    by_pair = {fb.pair: fb for fb in fixed_blocks}
    pairs = _pair_list(partition.n)
    for i, j in pairs:
        if (i, j) not in by_pair:
            raise ValueError("missing fixed cross block for pair (%d, %d)" % (i, j))
    crosses = _cross_solutions(subs, labels, [by_pair[p] for p in pairs])
    return Model(
        partition=partition,
        labels=tuple(labels),
        k=k,
        margins=tuple(margins),
        subs=tuple(subs),
        crosses=tuple(crosses),
    )


@dataclass(frozen=True)
class LagGram:
    """What :func:`gaussian_var_loglik` needs of a (d, T) latent series for order k.

    Rows run in reversed time, oldest first, the reverse of the time-major R:
    ``gram`` sums W_t W_t^T over the n = max(T - k, 0) windows
    W_t = (Z_{t-k}, ..., Z_{t-1}, Z_t), t = k..T-1, and ``head`` stacks the
    first min(k, T) observations the same way, (Z_0, Z_1, ...).
    """

    head: np.ndarray
    gram: np.ndarray
    n: int
    k: int


def lag_gram(z, k):
    """Compute the :class:`LagGram` of a (d, T) latent series once for order k."""
    z = np.asarray(z, dtype=float)
    n = max(z.shape[1] - k, 0)
    w = np.vstack([z[:, j:j + n] for j in range(k + 1)])
    return LagGram(head=z[:, :k].T.ravel(), gram=w @ w.T, n=n, k=k)


def _reverse_time(a, k):
    """Time-major <-> reversed-time block order of a square matrix; its own inverse."""
    w = a.shape[0]
    d = w // (k + 1)
    return a.reshape(k + 1, d, k + 1, d)[::-1, :, ::-1].reshape(w, w)


def _kernel(g, r, k):
    """The latent log likelihood of a LagGram and L^-1, L the Cholesky factor of reversed R.

    One LAPACK trtri call inverts L; the head is scored by its leading block,
    and every later one-step conditional shares the last diagonal block of L
    and the last d rows M of L^-1, so the data enter only through
    tr(M C M^T) with the lag Gram matrix C.
    """
    w = g.gram.shape[0]
    d = w // (k + 1)
    ch = np.linalg.cholesky(_reverse_time(symmetrize(r), k))
    inv, info = dtrtri(ch, lower=1)
    if info:
        raise np.linalg.LinAlgError("singular triangular factor")
    logdiag = np.log(np.diag(ch))
    m, p = g.head.size, w - d
    q = inv[:m, :m] @ g.head
    mt = inv[p:].T
    value = -0.5 * (m * _LOG_2PI + 2.0 * float(np.sum(logdiag[:m])) + float(q @ q)
                    + g.n * (d * _LOG_2PI + 2.0 * float(np.sum(logdiag[p:])))
                    + float(np.sum((g.gram @ mt) * mt)))
    return value, inv


def gaussian_var_loglik(z, r, k):
    """Exact stationary Gaussian log likelihood of a latent series.

    Parameters
    ----------
    z : ndarray, shape (d, T), or LagGram
        Latent observations, one column per time point in increasing time,
        or their :func:`lag_gram` for the same k.
    r : ndarray, shape ((k+1)d, (k+1)d)
        Time-major correlation matrix of (Z_t, Z_{t-1}, ..., Z_{t-k}); another
        shape raises ValueError.
    k : int
        Autoregressive order.

    One Cholesky factor L of the time-reversed R and its inverse score the
    first k observations and every later one-step conditional, so the cost
    does not depend on T.
    """
    g = z if isinstance(z, LagGram) else lag_gram(z, k)
    if g.k != k:
        raise ValueError("lag Gram matrix is for order %d, not %d" % (g.k, k))
    _check_r(r, g.gram.shape[0] // (k + 1), k)
    return _kernel(g, r, k)[0]


def latent_residuals(z, r, k):
    """Whitened one-step residuals of a (d, T) latent series, iid N(0, I) under R: column
    t >= k is the last d rows of the L^-1 of :func:`_kernel` times (Z_{t-k}, ..., Z_t), and
    the first k its leading block times (Z_0, ..., Z_{k-1})."""
    z = np.asarray(z, dtype=float)
    _check_r(r, z.shape[0], k)
    g = lag_gram(z, k)
    inv, d, m = _kernel(g, r, k)[1], z.shape[0], g.head.size
    return np.hstack([(inv[:m, :m] @ g.head).reshape(-1, d).T,
                      sum(inv[-d:, j * d:(j + 1) * d] @ z[:, j:j + g.n] for j in range(k + 1))])


def _check_r(r, d, k):
    """Refuse an R that is not (k+1)d square; a fit's own R needs no check."""
    if np.shape(r) != ((k + 1) * d,) * 2:
        raise ValueError("R has shape %s, expected (k+1)d = %d square" % (np.shape(r), (k + 1) * d))


def _gaussian_var_score(g, r, k):
    """:func:`gaussian_var_loglik` of a LagGram, its score dl/dr and the kernel's
    L^-1 (reversed time), from one Cholesky.

    In reversed time l = -1/2 sum_X s_X [n_X log det R_X + tr(R_X^-1 S_X)] + const
    over three blocks X: the head (S = h h^T, n = 1, s = +1), the window
    (S = C, n = T - k, s = +1) and the past, the leading w - d block of C
    (s = -1).  Each contributes -1/2 s_X (n_X R_X^-1 - R_X^-1 S_X R_X^-1) to
    the score; the head and past blocks of L^-1 are leading blocks of the
    window's.
    """
    value, inv = _kernel(g, r, k)
    w = inv.shape[0]
    m, p = g.head.size, w - w // (k + 1)

    def block(size, n, s):
        a = inv[:size, :size]
        rinv = a.T @ a
        return n * rinv - rinv @ s @ rinv

    score = block(w, g.n, g.gram)
    score[:p, :p] -= block(p, g.n, g.gram[:p, :p])
    score[:m, :m] += block(m, 1, np.outer(g.head, g.head))
    return value, _reverse_time(-0.5 * score, k), inv


def _margin_correction(data, margins, z):
    """Sum over variables of log f_i(x) - log phi(z_i); fixed given the margins."""
    total = 0.0
    for i, mg in enumerate(margins):
        total += float(np.sum(margin_logpdf(data[i], mg)))
        total += 0.5 * float(np.sum(_LOG_2PI + z[i] * z[i]))
    return total


def latent_scores(data, margins):
    """Latent normal scores of a (d, T) series under its margins, one row per variable."""
    return np.vstack([pit_to_normal(x, margins[v]) for v, x in enumerate(data)])


def loglik_full(data, margins, r, k):
    """Full-model log likelihood: latent Gaussian term plus margin correction."""
    data = np.asarray(data, dtype=float)
    z = latent_scores(data, margins)
    return gaussian_var_loglik(z, r, k) + _margin_correction(data, margins, z)


# -- the estimation engine shared by stages 2-4 ------------------------------
#
# Every dependence stage is one run, :func:`_fit_joint`, of one lag stack
# model, :func:`_joint_model`, theta -> (Gamma(-k)..Gamma(k), its Jacobian
# J): of the sub-process alone (stage 2), of every pair with the
# sub-processes held (stage 3; affine, so built once; no parameters on a
# one-set partition) and of everything (stage 4).  R is the block Toeplitz
# matrix of Gamma and the score is J . fold(dl/dR).  The kernel's Cholesky
# of R is the positive-definiteness test: a point where it fails, where the
# lag stack is not finite, or where the model finds a degenerate pair, scores
# +inf, and a run of ``minimize`` halves a step that lands there.  Stages 2
# and 3 start from theta = 0, the independence point (R = I in stage 2, a
# block-diagonal R in stage 3), stage 4 from its warm start.  A run's record
# is read off the lag stack it scored at its optimum, so no stage solves the
# closure system again there.  The curvature of every run is
# the expected information (:func:`_information`) from the lag stack,
# Jacobian and kernel factor that the point's own evaluation built.  Stage 2
# refreshes it at every iterate (Fisher scoring).  Stages 3 and 4 start next
# to their optimum and take it once, at the start, then update by BFGS:
# refreshed at every iterate there, stage 4 of the mixed_k1_stage4 benchmark
# fits took 4.9 evaluations for 4.3 and its median time rose by 1.1 ms.
# When the unit step of a BFGS-updated inverse fails, ``minimize`` takes the
# information again at its iterate: stage 3 of the paper's example (paper_k2,
# seed-11 replicates 0-9) overshot after its first step and took 12-14
# evaluations, and takes 5-6 with the restart; the mixed_k1_stage4 and
# scale_k3_d19 fits of those replicates do not restart.
_MAXITER = 4000  # stages 2 and 3
_MAXITER_REFINE = 8000  # stage 4


def _objective(gram, k, model):
    """nll(theta) -> (negative latent log likelihood, score) of the lag stack model
    ``model``, +inf if the lag stack is not finite or a LinAlgError is raised;
    ``nll.curvature(theta)`` is the expected information (:func:`_information`) there.

    The curvature reuses the Jacobian and kernel factor of the last
    evaluation, so theta must be that evaluation's point and have scored
    finite, as ``minimize`` guarantees; anywhere else it raises ValueError.
    """
    last = {}

    def nll(theta):
        try:
            gamma, jacobian = model(theta)
            if not np.isfinite(gamma).all():  # the kernel's symmetrize refuses it (ValueError)
                raise np.linalg.LinAlgError("non-finite lag stack")
            value, score, inv = _gaussian_var_score(gram, _block_toeplitz(gamma), k)
        except np.linalg.LinAlgError:
            last.clear()
            return np.inf, np.zeros(len(theta))
        jac, folded = jacobian(), _fold_lags(score, k).ravel()
        last.update(theta=np.array(theta), jac=jac, inv=inv)
        return -value, -(jac.reshape(-1, folded.size) @ folded)

    def curvature(theta):
        if not np.array_equal(theta, last.get("theta")):
            raise ValueError("the curvature is taken only at the last point evaluated, "
                             "which scored finite")
        return _information(gram, k, last["inv"], last["jac"])

    nll.curvature = curvature
    return nll


class StageFit(NamedTuple):
    """One dependence-stage run; ``run`` is the record that ``minimize`` returned."""

    subs: tuple
    fixed_blocks: tuple
    crosses: tuple
    loglik: float  # latent Gaussian term only
    run: object
    converged = property(lambda self: bool(self.run.success))


def _fit_joint(z, partition, labels, k, stage, maxiter, x0=None, held=None, refresh=False):
    """One dependence-stage run: the joint model (:func:`_joint_model`) on the lag
    Gram matrix of ``z``, minimised once from ``x0`` (theta = 0 when None), to
    its :class:`StageFit`.  Its fields are read off the lag stack the run scored
    at its optimum: the sub-process blocks (``held`` if given), the fixed block
    of each pair at the lag its labels fix and each pair's cross blocks, so the
    model they assemble is the R the kernel scored there and ``loglik`` is its
    latent value.  No positive definite point, at the build or the end, raises
    LinAlgError "<stage> found no positive definite point"."""
    refused = "%s found no positive definite point" % stage
    try:
        model = _joint_model(partition, labels, k, held=held)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(refused) from exc
    dims = [len(s) for s in partition.sets]
    sizes = [0 if held is not None else _sub_theta_len(di, k) for di in dims]
    if x0 is None:
        x0 = np.zeros(sum(sizes) + sum(dims[i] * dims[j] for i, j in _pair_list(partition.n)))
    nll = _objective(lag_gram(z, k), k, model)
    best = minimize(nll, x0, maxiter, nll.curvature, refresh=refresh)
    if not np.isfinite(best.fun):
        raise np.linalg.LinAlgError(refused)
    gamma, _ = model(best.x)  # the lag stack the run scored at its optimum; no Jacobian
    # the kernel scored (R + R^T) / 2, the Toeplitz matrix of the stack averaged with its
    # mirror; a stage-3 affine stack can miss Gamma(-l) = Gamma(l)^T by rounding
    gamma = 0.5 * (gamma + gamma[::-1].transpose(0, 2, 1))
    sets = [np.array(s) for s in partition.sets]
    block = lambda i, j: gamma[:, sets[i][:, None], sets[j]]  # (2k+1, d_i, d_j)
    subs = held if held is not None else [SubprocessCorr(blocks=tuple(block(i, i)[k:]))
                                          for i in range(partition.n)]
    fixed, crosses = [], []
    for i, j in _pair_list(partition.n):
        stack, lag = block(i, j), fixed_lag_for_labels((labels[i], labels[j]), k)
        fixed.append(CrossFixedBlock(pair=(i, j), lag=lag, value=stack[k + lag]))
        crosses.append(CrossSolution(pair=(i, j), order=k, blocks=tuple(stack)))
    return StageFit(tuple(subs), tuple(fixed), tuple(crosses), -float(best.fun), best)


# -- stage 2: per-sub-process dependence ------------------------------------

def _sub_theta_len(d, k):
    return d * (d - 1) // 2 + k * d * d


def _corr_to_theta(corr):
    """The parameter vector of :func:`_sub_lags` whose lags 0..k are ``corr``'s blocks,
    used to seed warm starts."""
    ii, jj = np.tril_indices(corr.dim, -1)
    return np.concatenate([corr.blocks[0][ii, jj]] + [b.ravel() for b in corr.blocks[1:]])


@dataclass(frozen=True)
class SubprocessFit:
    indices: tuple
    corr: SubprocessCorr
    loglik: float  # latent Gaussian term only
    run: object  # the record of its stage-2 run
    converged = StageFit.converged


def fit_stage2(z, indices, k):
    """Quasi-MLE of one sub-process's correlation blocks on the latent scale.

    ``z`` holds the latent scores of every variable; ``indices`` selects the
    sub-process's rows.  The model is the joint model (:func:`_joint_model`)
    of the sub-process alone, on the raw entries of :func:`_sub_lags` at every
    dimension, a scalar sub-process included.  One Fisher scoring run on the
    closed-form score from theta = 0, the white-noise point R = I, which is
    always feasible: every step is a Newton step on the expected
    information at its iterate.
    """
    indices = tuple(indices)
    d = len(indices)
    fit = _fit_joint(
        np.asarray(z, dtype=float)[list(indices)], Partition(sets=(tuple(range(d)),), d=d), (1,),
        k, "stage 2 (sub-process %s)" % (indices,), _MAXITER, refresh=True)
    return SubprocessFit(indices=indices, corr=fit.subs[0], loglik=fit.loglik, run=fit.run)


# -- stage 3: cross dependence ----------------------------------------------

def _pair_list(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _pack_fixed(fixed_blocks):
    """All fixed blocks as one vector, empty when the partition has no pairs."""
    return np.concatenate([np.zeros(0)] + [fb.value.ravel() for fb in fixed_blocks])


def fit_stage3(z, subproc_corrs, labels, partition, k):
    """Joint quasi-MLE of every pair's fixed cross block from the latent scores ``z``.

    Sub-process blocks stay at their stage-2 values, so the time-major R is
    affine in the fixed blocks: the joint model with the sub-processes held
    (:func:`_joint_model`) builds the map once, at theta = 0, and one BFGS
    run from that same point scores its points through it.  Zero fixed
    blocks give the block-diagonal R of independent sub-processes, feasible
    whenever the stage-2 fits are.  The run's inverse Hessian starts as the
    inverse of the expected information there (:func:`_information`), and is
    taken again at an iterate where the unit step of its BFGS update fails
    (``run.nrestart`` counts these): on the paper's bivariate k = 2 example
    the first step lands next to the optimum and the secant step after it
    overshoots, and the restart cuts the run from 12-14 evaluations to 5-6.
    The returned crosses are read off the affine lag stack the run scored at
    its optimum, within rounding (8.3e-17 in R on the benchmark's seed-11
    replicates) of what an exact closure solve from the fixed blocks gives.  A degenerate
    pair raises LinAlgError.  A one-set partition has no fixed blocks: its
    run has no parameters and returns the stage-2 value.  Its ``subs`` are ``subproc_corrs``.
    """
    return _fit_joint(z, partition, labels, k, "stage 3", _MAXITER, held=list(subproc_corrs))


@functools.lru_cache(maxsize=None)
def _sub_lags(d, k):
    """theta_i -> (lag stack Sigma_{-k}..Sigma_k, its (n_i, 2k+1, d, d) Jacobian) of
    one sub-process: the parametrisation of every dependence stage.

    Every sub-process, scalar or not, uses raw entries: the lower triangle of
    the lag-0 correlation, then the full lag matrices, which for a scalar
    sub-process are its autocorrelations rho_1..rho_k.  They are placed by one
    index scatter, ``stack.flat[pos] = theta[take]``, so the Jacobian is
    constant; the likelihood kernel rejects the points whose Toeplitz matrix
    is not positive definite, the nonstationary ones.  The scatter is built
    once per (d, k) and its Jacobian, shared by every call, is read-only;
    each call returns a new stack.
    """
    # the parameter index of every lag-stack entry, -1 on the unit diagonal of lag 0
    ii, jj = np.tril_indices(d, -1)
    lag0 = np.full((d, d), -1)
    lag0[ii, jj] = lag0[jj, ii] = np.arange(ii.size)
    index = _mirror_lags([lag0] + list(ii.size + np.arange(k * d * d).reshape(k, d, d)))
    base = (index < 0).astype(float)
    pos = np.flatnonzero(index.ravel() >= 0)
    take = index.ravel()[pos]
    dstack = np.zeros((_sub_theta_len(d, k), index.size))
    dstack[take, pos] = 1.0
    dstack = dstack.reshape(-1, *index.shape)
    dstack.flags.writeable = False

    def lags(theta):
        stack = base.copy()
        stack.flat[pos] = theta[take]
        return stack, dstack

    return lags


def _joint_model(partition, labels, k, held=None):
    """The lag stack model of every dependence stage: theta (the sub-processes as
    in :func:`_sub_lags`, then the fixed blocks as in :func:`_pack_fixed`) to
    (lag stack Gamma(-k)..Gamma(k), a function returning its Jacobian J).

    Gamma is built from the sub-process stacks and the one pair loop,
    :func:`closure._solve_pairs`; J carries the sub-process tangents through
    the pair tangents.  With ``held``, one SubprocessCorr per sub-process,
    the sub-processes are held (no tangent directions) and theta is the
    fixed blocks alone: Gamma = Gamma_0 + J theta is then exact, so one
    evaluation at theta = 0 gives the whole map.
    """
    sets = [np.array(s) for s in partition.sets]
    dims = [len(s) for s in sets]
    pairs = _pair_list(partition.n)
    if held is None:
        sub_lags = [_sub_lags(di, k) for di in dims]
        sizes = [_sub_theta_len(di, k) for di in dims]
    else:
        stacks = [_mirror_lags(c.blocks) for c in held]
        sub_lags = [lambda _, s=s: (s, np.zeros((0,) + s.shape)) for s in stacks]
        sizes = [0] * len(dims)
    sizes += [dims[i] * dims[j] for i, j in pairs]
    rows = [slice(a, b) for a, b in zip(np.cumsum([0] + sizes[:-1]), np.cumsum(sizes))]
    fixed_rows = rows[partition.n:]

    def lags(theta):
        subs = [f(theta[r]) for f, r in zip(sub_lags, rows)]
        gamma = np.zeros((2 * k + 1, partition.d, partition.d))
        for s, (stack, _) in zip(sets, subs):
            gamma[:, s[:, None], s] = stack
        values = [theta[r].reshape(dims[i], dims[j]) for (i, j), r in zip(pairs, fixed_rows)]
        crosses, tangent = _solve_pairs([stack for stack, _ in subs], labels, pairs, values)
        for (i, j), stack in zip(pairs, crosses):
            _place_cross(gamma, sets[i], sets[j], stack)

        def jacobian():
            jac = np.zeros((len(theta),) + gamma.shape)
            for s, r, (_, dstack) in zip(sets, rows, subs):
                jac[r, :, s[:, None], s] = dstack
            tangents = tangent([dstack for _, dstack in subs])
            for (i, j), r, parts in zip(pairs, fixed_rows, tangents):
                for rr, dstack in zip((rows[i], rows[j], r), parts):
                    _place_cross(jac[rr], sets[i], sets[j], dstack)
            return jac

        return gamma, jacobian

    if held is not None:
        gamma0, jacobian = lags(np.zeros(sum(sizes)))
        jac = jacobian()
        lags = lambda theta: (gamma0 + (theta @ jac.reshape(len(jac), gamma0.size))
                              .reshape(gamma0.shape), lambda: jac)
    return lags


def _information(g, k, inv, jac):
    """The expected (Fisher) information of the latent likelihood of a LagGram at a
    point, from the kernel's L^-1 there and the (n, 2k+1, d, d) Jacobian J of
    the point's lag stack.

    In reversed time, with the three blocks X of :func:`_gaussian_var_score`,
    I_ab = 1/2 sum_X s_X n_X tr(R_X^-1 R_a R_X^-1 R_b), R_a the block Toeplitz
    matrix of row a of J.  With A_a = L^-1 R_a L^-T, the trace over X is the
    inner product of the leading blocks of A_a and A_b, since L^-1 is lower
    triangular: two batched products and one Gram matrix per block.
    """
    w = inv.shape[0]
    # reversed time: block (r, s) is lag r - s, the Toeplitz matrix of the flipped stack
    a = inv @ _block_toeplitz(jac[:, ::-1]) @ inv.T

    def inner(size):
        b = a[:, :size, :size].reshape(len(a), -1)
        return b @ b.T

    return 0.5 * (g.n * (inner(w) - inner(w - w // (k + 1))) + inner(g.head.size))


def fit_stage4(z, partition, labels, subs, fixed_blocks, k):
    """Joint refinement of all dependence parameters from the warm start.

    A single BFGS run on the latent scores ``z``, started at the stage 2 + 3
    solution, from the inverse of the expected information there
    (:func:`_information`), taken again at an iterate where the unit step of
    its BFGS update fails, as in stage 3, and scored through the joint model of
    :func:`_joint_model`.  The start is the input point itself, so the run,
    which never accepts a step that raises the value, ends no worse than it.
    """
    x0 = np.concatenate([_corr_to_theta(s) for s in subs] + [_pack_fixed(fixed_blocks)])
    return _fit_joint(z, partition, labels, k, "stage 4", _MAXITER_REFINE, x0=x0)


@dataclass(frozen=True)
class FittedModel:
    model: Model
    loglik: float
    n_params: int
    aic: float
    bic: float
    margin_fits: tuple
    sub_fits: tuple
    stage_logliks: dict
    converged: bool


def fit_model(data, config, stage4=False):
    """Run the full multi-stage fit and return the fitted model with scores.

    Stages 2-4 each make their one run through :func:`_fit_joint`.  On a
    one-set partition stage 3 is that run with no parameters, so its entry in
    ``stage_logliks`` is the stage-2 value.  The last stage record gives the
    model, the lag stack its run scored, and its ``loglik`` is that record's
    latent value plus the margin correction, with no second likelihood pass.
    """
    data = np.asarray(data, dtype=float)
    d, T = data.shape
    if d != config.partition.d:
        raise ValueError("data has %d variables, config expects %d" % (d, config.partition.d))
    margin_fits = tuple(
        fit_margin(data[i], fam) for i, fam in enumerate(config.margin_families)
    )
    margins = tuple(mf.spec for mf in margin_fits)
    z = latent_scores(data, margins)
    sub_fits = tuple(fit_stage2(z, s, config.k) for s in config.partition.sets)
    st3 = fit_stage3(z, [sf.corr for sf in sub_fits], config.labels, config.partition, config.k)
    stages = (st3,) if not stage4 else (st3, fit_stage4(
        z, config.partition, config.labels, st3.subs, st3.fixed_blocks, config.k))
    stage_logliks = {"stage2": [sf.loglik for sf in sub_fits]}
    stage_logliks.update(("stage%d" % i, st.loglik) for i, st in enumerate(stages, 3))
    model = Model(
        partition=config.partition,
        labels=config.labels,
        k=config.k,
        margins=margins,
        subs=stages[-1].subs,
        crosses=stages[-1].crosses,
    )
    ll = stages[-1].loglik + _margin_correction(data, margins, z)
    p = count_params(config)
    return FittedModel(
        model=model,
        loglik=ll,
        n_params=p,
        aic=2.0 * p - 2.0 * ll,
        bic=p * float(np.log(T)) - 2.0 * ll,
        margin_fits=margin_fits,
        sub_fits=sub_fits,
        stage_logliks=stage_logliks,
        converged=all(f.converged for f in (*margin_fits, *sub_fits, *stages)),
    )


def count_params(config):
    """Number of free parameters: margins plus dependence.

    Margin-closed models carry d_i(d_i-1)/2 + k d_i^2 parameters per
    sub-process plus one d_i x d_j fixed block per pair; the unrestricted
    benchmark is the one-set case, d(d-1)/2 + k d^2.
    """
    margin_p = sum(len(FAMILY_PARAMS[f]) for f in config.margin_families)
    dims = [len(s) for s in config.partition.sets]
    dep = sum(_sub_theta_len(di, config.k) for di in dims)
    dep += sum(dims[i] * dims[j] for i, j in _pair_list(len(dims)))
    return margin_p + dep


@dataclass(frozen=True)
class PortmanteauResult:
    statistic: float
    df: int
    pvalue: float


def portmanteau(residuals, max_lag, fitted_lag_count):
    """Multivariate portmanteau test on residual autocorrelation.

    Q = T^2 sum_{l=1..m} (T-l)^{-1} tr(C_l' C_0^{-1} C_l C_0^{-1}), each trace summed as
    ||L^-1 C_l L^-T||_F^2 for C_0 = L L^T, referred to chi-square with d^2 (m -
    fitted_lag_count) degrees of freedom.  A ``max_lag`` below 1, a ``fitted_lag_count``
    below 0, and a bool or non-integer lag raise ValueError naming the argument.
    """
    e = np.asarray(residuals, dtype=float)
    d, T = e.shape
    max_lag = _integer(max_lag, "max_lag", least=1)
    fitted_lag_count = _integer(fitted_lag_count, "fitted_lag_count", least=0)
    if max_lag <= fitted_lag_count:
        raise ValueError("max_lag must exceed the number of fitted lags")
    if max_lag >= T:
        raise ValueError("max_lag must be below the series length")
    e = e - e.mean(axis=1, keepdims=True)
    e = sla.solve_triangular(np.linalg.cholesky(e @ e.T / T), e, lower=True)
    q = 0.0
    for l in range(1, max_lag + 1):
        cl = e[:, l:] @ e[:, :T - l].T / T
        q += float(np.sum(cl * cl)) / (T - l)
    q *= T * T
    df = d * d * (max_lag - fitted_lag_count)
    return PortmanteauResult(statistic=q, df=df, pvalue=float(chdtrc(df, q)))


def simulate_model(model, T, seed):
    """Simulate observations: latent Gaussian VAR path mapped through the margins.

    Each margin's ``from_normal`` is elementwise, so it runs on time chunks
    that may go to several threads with the same bits as one call per row.
    """
    z = simulate(model.var(), T, seed)
    for margin in model.margins:  # each table built once, before any thread reads it
        if margin.family == "skewt":
            _logit_table(*margin.params[2:])
    out = np.empty(z.shape)

    def fill(lo, hi):
        for i, margin in enumerate(model.margins):
            out[i, lo:hi] = from_normal(z[i, lo:hi], margin)

    _in_chunks(fill, T, width=model.partition.d)
    return out
