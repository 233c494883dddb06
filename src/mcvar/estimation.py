"""Model container and multi-stage quasi maximum likelihood estimation.

The model couples arbitrary continuous margins to a stationary Gaussian
VAR(k) copula whose correlation structure is margin-closed.  The likelihood
splits into a latent Gaussian term plus a margin correction that does not
depend on the dependence parameters, so the dependence stages optimize the
latent term alone:

* stage 1 fits each margin separately,
* stage 2 fits each sub-process's own correlation blocks,
* stage 3 fits the fixed cross block of every pair jointly,
* stage 4 (optional) refines all dependence parameters from the warm start.
"""

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla
from scipy import optimize
from scipy.stats import chi2

from .closure import (
    CrossFixedBlock,
    CrossSolution,
    Partition,
    SubprocessCorr,
    assemble_full_R,
    fixed_lag_for_labels,
    reorder_time_major,
    solve_cross_pair,
)
from .linalg import PD_TOL, gaussian_condition
from .margins import FAMILY_PARAMS, MarginSpec, fit_margin, logpdf as margin_logpdf, pit_to_normal
from .varprocess import durbin_levinson, sample_statistics, simulate, _scalar_pacf

_LOG_2PI = float(np.log(2.0 * np.pi))

__all__ = [
    "ModelConfig",
    "Model",
    "construct_model",
    "FittedModel",
    "SubprocessFit",
    "Stage3Fit",
    "gaussian_var_loglik",
    "loglik_full",
    "loglik_sub",
    "fit_stage2",
    "fit_stage3",
    "fit_stage4",
    "fit_model",
    "fit_unrestricted",
    "count_params",
    "portmanteau",
    "simulate_model",
]


@dataclass(frozen=True)
class ModelConfig:
    """Structural choices: partition, condition labels, order, margin families."""

    partition: Partition
    labels: tuple
    k: int
    margin_families: tuple

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(int(c) for c in self.labels))
        object.__setattr__(self, "margin_families", tuple(self.margin_families))
        if len(self.labels) != self.partition.n:
            raise ValueError("need one condition label per sub-process")
        if any(c not in (1, 2) for c in self.labels):
            raise ValueError("condition labels must be 1 or 2")
        if len(self.margin_families) != self.partition.d:
            raise ValueError("need one margin family per variable")
        if self.k < 1:
            raise ValueError("model order k must be >= 1")


@dataclass(frozen=True)
class Model:
    """A fully specified margin-closed model.

    ``margins`` follows the natural variable order 0..d-1; ``subs`` and
    ``crosses`` follow the partition (pairs in lexicographic order).
    """

    partition: Partition
    labels: tuple
    k: int
    margins: tuple
    subs: tuple
    crosses: tuple

    def partitioned_R(self):
        return assemble_full_R(self.partition, self.subs, self.crosses)

    def time_major_R(self):
        return reorder_time_major(self.partitioned_R(), self.partition, self.k)

    def var(self):
        """Implied VAR(k) coefficients on the latent (correlation) scale."""
        d = self.partition.d
        r = self.time_major_R()
        slices = [r[:d, l * d:(l + 1) * d] for l in range(self.k + 1)]
        return durbin_levinson(slices, self.k)

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
        sets = tuple(tuple(s) for s in d["partition"])
        dim = sum(len(s) for s in sets)
        part = Partition(sets=sets, d=dim)
        k = int(d["k"])
        subs = tuple(
            SubprocessCorr(blocks=tuple(np.asarray(b, dtype=float) for b in e["blocks"]))
            for e in d["subprocess_corrs"]
        )
        crosses = tuple(
            CrossSolution(
                pair=tuple(e["pair"]),
                order=k,
                blocks=tuple(np.asarray(b, dtype=float) for b in e["blocks"]),
            )
            for e in d["crosses"]
        )
        margins = tuple(MarginSpec.from_dict(m) for m in d["margins"])
        return cls(
            partition=part,
            labels=tuple(int(c) for c in d["labels"]),
            k=k,
            margins=margins,
            subs=subs,
            crosses=crosses,
        )


def construct_model(partition, labels, k, margins, subs, fixed_blocks):
    """Build a model by solving every pair's cross blocks from its fixed block."""
    by_pair = {fb.pair: fb for fb in fixed_blocks}
    crosses = []
    for i in range(partition.n):
        for j in range(i + 1, partition.n):
            if (i, j) not in by_pair:
                raise ValueError("missing fixed cross block for pair (%d, %d)" % (i, j))
            crosses.append(
                solve_cross_pair(subs[i], subs[j], (labels[i], labels[j]), by_pair[(i, j)])
            )
    return Model(
        partition=partition,
        labels=tuple(labels),
        k=k,
        margins=tuple(margins),
        subs=tuple(subs),
        crosses=tuple(crosses),
    )


def _logdens_columns(e, cov):
    """Sum of centered Gaussian log densities over the columns of e."""
    e = e if e.ndim == 2 else e[:, None]
    ch = np.linalg.cholesky(cov)
    q = sla.solve_triangular(ch, e, lower=True)
    logdet = 2.0 * float(np.sum(np.log(np.diag(ch))))
    n, m = e.shape
    return -0.5 * (m * (n * _LOG_2PI + logdet) + float(np.sum(q * q)))


def gaussian_var_loglik(z, r, k):
    """Exact stationary Gaussian log likelihood of a latent series.

    Parameters
    ----------
    z : ndarray, shape (d, T)
        Latent observations, one column per time point in increasing time.
    r : ndarray, shape ((k+1)d, (k+1)d)
        Time-major correlation matrix of (Z_t, Z_{t-1}, ..., Z_{t-k}).
    k : int
        Autoregressive order.

    The first k observations contribute through growing conditioning
    windows, after which the one-step conditional is constant and the
    residual pass is vectorized.
    """
    z = np.asarray(z, dtype=float)
    d, T = z.shape
    r = np.asarray(r, dtype=float)
    total = 0.0
    for c in range(min(k, T)):
        if c == 0:
            total += _logdens_columns(z[:, 0], r[:d, :d])
            continue
        w = (c + 1) * d
        coeff, cond = gaussian_condition(r[:w, :w], list(range(d)), list(range(d, w)))
        prev = np.concatenate([z[:, c - 1 - m] for m in range(c)])
        total += _logdens_columns(z[:, c] - coeff @ prev, cond)
    if T <= k:
        return total
    w = (k + 1) * d
    coeff, cond = gaussian_condition(r, list(range(d)), list(range(d, w)))
    resid = z[:, k:].copy()
    for m in range(k):
        resid -= coeff[:, m * d:(m + 1) * d] @ z[:, k - 1 - m:T - 1 - m]
    return total + _logdens_columns(resid, cond)


def _margin_correction(data, margins, z):
    """Sum over variables of log f_i(x) - log phi(z_i); fixed given the margins."""
    total = 0.0
    for i, mg in enumerate(margins):
        total += float(np.sum(margin_logpdf(data[i], mg)))
        total += 0.5 * float(np.sum(_LOG_2PI + z[i] * z[i]))
    return total


def loglik_full(data, margins, r, k):
    """Full-model log likelihood: latent Gaussian term plus margin correction."""
    data = np.asarray(data, dtype=float)
    z = _scores(data, margins, range(data.shape[0]))
    return gaussian_var_loglik(z, r, k) + _margin_correction(data, margins, z)


def loglik_sub(data, margins, indices, k, corr):
    """Log likelihood of one sub-process in isolation.

    ``indices`` selects the sub-process's variables out of ``data`` and
    ``margins``; ``corr`` is its correlation structure.
    """
    indices = list(indices)
    sub_data = np.asarray(data, dtype=float)[indices]
    sub_margins = [margins[v] for v in indices]
    z = _scores(sub_data, sub_margins, range(len(indices)))
    return gaussian_var_loglik(z, corr.toeplitz(), k) + _margin_correction(
        sub_data, sub_margins, z
    )


# -- the estimation engine shared by stages 2-4 ------------------------------
#
# A stage supplies ``build(theta)`` returning the time-major R; it calls
# _require_pd on every matrix its parametrisation does not keep positive
# definite.  Objective values stand in for -loglik at infeasible points and
# are graded so the optimizer can slide back in.
_BARRIER = 1e9
_MAXITER = 4000  # per start, stages 2 and 3
_MAXITER_REFINE = 8000  # stage 4


class _NotPositiveDefinite(Exception):
    """Raised with how far the smallest eigenvalue falls below PD_TOL."""


def _require_pd(mat):
    violation = PD_TOL - float(np.linalg.eigvalsh(0.5 * (mat + mat.T))[0])
    if violation > 0.0:
        raise _NotPositiveDefinite(violation)
    return mat


def _objective(z, k, build):
    """Negative latent log likelihood of ``build(theta)``, a barrier value if infeasible.

    A PD violation v scores _BARRIER (1 + v); a degenerate cross pair or a
    failed factorization (both LinAlgError) scores 2 _BARRIER.
    """

    def nll(theta):
        try:
            return -gaussian_var_loglik(z, build(theta), k)
        except _NotPositiveDefinite as exc:
            return _BARRIER * (1.0 + exc.args[0])
        except np.linalg.LinAlgError:
            return 2.0 * _BARRIER

    return nll


def _starts(n_theta, moment):
    """Zeros, then the moment estimate ``moment()`` and half of it unless it fails."""
    try:
        m = moment()
    except np.linalg.LinAlgError:
        return [np.zeros(n_theta)]
    return [np.zeros(n_theta), m, 0.5 * m]


def _minimize(nll, starts, maxiter):
    """Nelder-Mead from every start; the first result with the lowest value wins."""
    options = {"maxiter": maxiter, "xatol": 1e-7, "fatol": 1e-9}
    runs = [optimize.minimize(nll, np.asarray(x0, dtype=float), method="Nelder-Mead",
                              options=options) for x0 in starts]
    return min(runs, key=lambda res: res.fun)


def _scores(data, margins, indices):
    """Latent normal scores of the variables ``indices``, one row each."""
    return np.vstack([pit_to_normal(data[v], margins[v]) for v in indices])


# -- stage 2: per-sub-process dependence ------------------------------------

def _pacf_to_acf(pi):
    """Autocorrelations rho_1..rho_k from partial autocorrelations in (-1, 1)."""
    pi = np.asarray(pi, dtype=float)
    kk = pi.size
    rho = np.zeros(kk)
    phi = np.zeros(0)
    v = 1.0
    for m in range(1, kk + 1):
        p = pi[m - 1]
        if m == 1:
            rho[0] = p
            phi = np.array([p])
        else:
            rho[m - 1] = phi @ rho[m - 2::-1] + p * v
            phi = np.concatenate([phi - p * phi[::-1], [p]])
        v *= 1.0 - p * p
    return rho


def _sub_theta_len(d, k):
    return k if d == 1 else d * (d - 1) // 2 + k * d * d


def _theta_to_corr(theta, d, k):
    """Parameter vector to SubprocessCorr.

    Scalar sub-processes use tanh-mapped partial autocorrelations, which keep
    every parameter point inside the stationary region.  Multivariate
    sub-processes use raw entries (lower triangle of the lag-0 correlation,
    then full lag matrices) and rely on the caller's barrier for positivity.
    """
    theta = np.asarray(theta, dtype=float)
    if d == 1:
        rho = _pacf_to_acf(np.tanh(theta))
        blocks = [np.eye(1)] + [np.array([[r]]) for r in rho]
        return SubprocessCorr(blocks=tuple(blocks))
    ii, jj = np.tril_indices(d, -1)
    nh = ii.size
    m0 = np.eye(d)
    m0[ii, jj] = theta[:nh]
    m0[jj, ii] = theta[:nh]
    blocks = [m0]
    off = nh
    for _ in range(k):
        blocks.append(theta[off:off + d * d].reshape(d, d))
        off += d * d
    return SubprocessCorr(blocks=tuple(blocks))


def _corr_to_theta(corr):
    """Inverse of :func:`_theta_to_corr`, used to seed warm starts."""
    d, k = corr.dim, corr.order
    if d == 1:
        gam = [float(corr.block(l)[0, 0]) for l in range(k + 1)]
        pi = _scalar_pacf(np.array(gam), k)
        return np.arctanh(np.clip(pi, -0.999, 0.999))
    ii, jj = np.tril_indices(d, -1)
    parts = [corr.blocks[0][ii, jj]]
    parts += [b.ravel() for b in corr.blocks[1:]]
    return np.concatenate(parts)


def _sample_corr(z, k):
    """Sample autocovariances of lags 0..k scaled by the lag-0 standard deviations."""
    stats = sample_statistics(z, k)
    scale = 1.0 / np.sqrt(np.diag(stats.autocov[0]))
    return [stats.autocov[l] * np.outer(scale, scale) for l in range(k + 1)]


def _moment_corr(z, k):
    """Sample correlation blocks of a latent series, normalized to unit diagonal."""
    blocks = _sample_corr(z, k)
    b0 = 0.5 * (blocks[0] + blocks[0].T)
    np.fill_diagonal(b0, 1.0)
    return SubprocessCorr(blocks=tuple([b0] + blocks[1:]))


@dataclass(frozen=True)
class SubprocessFit:
    indices: tuple
    corr: SubprocessCorr
    loglik: float  # latent Gaussian term only
    converged: bool


def _checked_corr(theta, d, k):
    """:func:`_theta_to_corr`, requiring a PD Toeplitz when d > 1 (raw entries)."""
    corr = _theta_to_corr(theta, d, k)
    if d > 1:
        _require_pd(corr.toeplitz())
    return corr


def fit_stage2(data, margins, indices, k):
    """Quasi-MLE of one sub-process's correlation blocks on the latent scale.

    Runs Nelder-Mead from three deterministic starts (zeros, sample moments,
    half the sample moments) and keeps the best.
    """
    indices = list(indices)
    z = _scores(np.asarray(data, dtype=float), margins, indices)
    d = len(indices)
    best = _minimize(
        _objective(z, k, lambda theta: _checked_corr(theta, d, k).toeplitz()),
        _starts(_sub_theta_len(d, k), lambda: _corr_to_theta(_moment_corr(z, k))),
        _MAXITER,
    )
    return SubprocessFit(
        indices=tuple(indices),
        corr=_theta_to_corr(best.x, d, k),
        loglik=-float(best.fun),
        converged=bool(best.success),
    )


# -- stage 3: cross dependence ----------------------------------------------

def _pair_list(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _pack_fixed(fixed_blocks):
    """All fixed blocks as one vector, empty when the partition has no pairs."""
    return np.concatenate([np.zeros(0)] + [fb.value.ravel() for fb in fixed_blocks])


def _unpack_fixed(theta, partition, labels, k):
    dims = [len(s) for s in partition.sets]
    out = []
    off = 0
    for i, j in _pair_list(partition.n):
        size = dims[i] * dims[j]
        val = theta[off:off + size].reshape(dims[i], dims[j])
        off += size
        out.append(
            CrossFixedBlock(
                pair=(i, j), lag=fixed_lag_for_labels((labels[i], labels[j]), k), value=val
            )
        )
    return out


def _build_time_major(partition, labels, k, subs, fixed_blocks):
    """Solve all pairs and return (crosses, time-major R)."""
    crosses = [
        solve_cross_pair(subs[i], subs[j], (labels[i], labels[j]), fb)
        for (i, j), fb in zip(_pair_list(partition.n), fixed_blocks)
    ]
    r = assemble_full_R(partition, subs, crosses)
    return crosses, reorder_time_major(r, partition, k)


def _moment_fixed_blocks(z, partition, labels, k):
    """Sample cross correlations at each pair's fixed lag."""
    norm = _sample_corr(z, k)

    def cross(l):
        return norm[l] if l >= 0 else norm[-l].T

    out = []
    for i, j in _pair_list(partition.n):
        lag = fixed_lag_for_labels((labels[i], labels[j]), k)
        block = cross(lag)[np.ix_(list(partition.sets[i]), list(partition.sets[j]))]
        out.append(CrossFixedBlock(pair=(i, j), lag=lag, value=block))
    return out


@dataclass(frozen=True)
class Stage3Fit:
    fixed_blocks: tuple
    crosses: tuple
    loglik: float  # latent Gaussian term only
    converged: bool


def fit_stage3(data, margins, subproc_corrs, labels, partition, k):
    """Joint quasi-MLE of every pair's fixed cross block.

    Sub-process blocks stay at their stage-2 values; each objective
    evaluation re-solves the margin-closure system for the trial fixed
    blocks and scores the assembled correlation matrix.
    """
    data = np.asarray(data, dtype=float)
    z = _scores(data, margins, range(data.shape[0]))
    subs = list(subproc_corrs)

    def build(theta):
        fixed = _unpack_fixed(theta, partition, labels, k)
        return _require_pd(_build_time_major(partition, labels, k, subs, fixed)[1])

    n_theta = sum(len(partition.sets[i]) * len(partition.sets[j])
                  for i, j in _pair_list(partition.n))
    best = _minimize(
        _objective(z, k, build),
        _starts(n_theta, lambda: _pack_fixed(_moment_fixed_blocks(z, partition, labels, k))),
        _MAXITER,
    )
    fixed = _unpack_fixed(best.x, partition, labels, k)
    crosses, _ = _build_time_major(partition, labels, k, subs, fixed)
    return Stage3Fit(
        fixed_blocks=tuple(fixed),
        crosses=tuple(crosses),
        loglik=-float(best.fun),
        converged=bool(best.success),
    )


def fit_stage4(data, margins, partition, labels, subs, fixed_blocks, k):
    """Joint refinement of all dependence parameters from the warm start.

    A single Nelder-Mead run started at the stage 2 + 3 solution; since the
    start is feasible and the method is monotone, the refined latent log
    likelihood can only improve.
    """
    data = np.asarray(data, dtype=float)
    z = _scores(data, margins, range(data.shape[0]))
    dims = [len(s) for s in partition.sets]
    cuts = np.cumsum([_sub_theta_len(d, k) for d in dims])

    def build(theta):
        *sub_thetas, cross_theta = np.split(theta, cuts)
        trial_subs = [_checked_corr(t, d, k) for t, d in zip(sub_thetas, dims)]
        fixed = _unpack_fixed(cross_theta, partition, labels, k)
        return _require_pd(_build_time_major(partition, labels, k, trial_subs, fixed)[1])

    x0 = np.concatenate([_corr_to_theta(s) for s in subs] + [_pack_fixed(fixed_blocks)])
    res = _minimize(_objective(z, k, build), [x0], _MAXITER_REFINE)
    *sub_thetas, cross_theta = np.split(res.x, cuts)
    out_subs = tuple(_theta_to_corr(t, d, k) for t, d in zip(sub_thetas, dims))
    fixed = tuple(_unpack_fixed(cross_theta, partition, labels, k))
    crosses, _ = _build_time_major(partition, labels, k, list(out_subs), list(fixed))
    return out_subs, fixed, tuple(crosses), -float(res.fun), bool(res.success)


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

    A one-set partition has no pairs, so stage 3 is skipped and its entry in
    ``stage_logliks`` repeats the stage-2 value.
    """
    data = np.asarray(data, dtype=float)
    d, T = data.shape
    if d != config.partition.d:
        raise ValueError("data has %d variables, config expects %d" % (d, config.partition.d))
    margin_fits = tuple(
        fit_margin(data[i], fam) for i, fam in enumerate(config.margin_families)
    )
    margins = tuple(mf.spec for mf in margin_fits)
    sub_fits = tuple(
        fit_stage2(data, margins, s, config.k) for s in config.partition.sets
    )
    subs = [sf.corr for sf in sub_fits]
    converged = all(sf.converged for sf in sub_fits)
    stage_logliks = {"stage2": [sf.loglik for sf in sub_fits]}
    if config.partition.n == 1:
        fixed, crosses = [], ()
        stage_logliks["stage3"] = sub_fits[0].loglik
    else:
        st3 = fit_stage3(
            data, margins, subs, config.labels, config.partition, config.k
        )
        fixed, crosses = list(st3.fixed_blocks), st3.crosses
        stage_logliks["stage3"] = st3.loglik
        converged = converged and st3.converged
    if stage4:
        subs, fixed, crosses, ll4, ok4 = fit_stage4(
            data, margins, config.partition, config.labels, subs, fixed, config.k
        )
        stage_logliks["stage4"] = ll4
        converged = converged and ok4
    model = Model(
        partition=config.partition,
        labels=config.labels,
        k=config.k,
        margins=margins,
        subs=tuple(subs),
        crosses=tuple(crosses),
    )
    ll = loglik_full(data, margins, model.time_major_R(), config.k)
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
        converged=converged,
    )


def fit_unrestricted(data, margin_families, k):
    """Benchmark fit with the same margins but an unconstrained VAR(k) copula.

    This is :func:`fit_model` on the one-set partition: all correlation
    blocks are fitted directly and no margin-closure structure is imposed.
    """
    d = np.asarray(data).shape[0]
    config = ModelConfig(
        partition=Partition(sets=(tuple(range(d)),), d=d),
        labels=(1,),
        k=k,
        margin_families=margin_families,
    )
    return fit_model(data, config)


def count_params(config, restricted=True):
    """Number of free parameters: margins plus dependence.

    Margin-closed models carry d_i(d_i-1)/2 + k d_i^2 parameters per
    sub-process plus one d_i x d_j fixed block per pair; the unrestricted
    benchmark is the one-set case, d(d-1)/2 + k d^2.
    """
    margin_p = sum(len(FAMILY_PARAMS[f]) for f in config.margin_families)
    dims = [len(s) for s in config.partition.sets] if restricted else [config.partition.d]
    dep = sum(di * (di - 1) // 2 + config.k * di * di for di in dims)
    dep += sum(dims[i] * dims[j] for i, j in _pair_list(len(dims)))
    return margin_p + dep


@dataclass(frozen=True)
class PortmanteauResult:
    statistic: float
    df: int
    pvalue: float


def portmanteau(residuals, max_lag, fitted_lag_count):
    """Multivariate portmanteau test on residual autocorrelation.

    Q = T^2 sum_{l=1..m} (T-l)^{-1} tr(C_l' C_0^{-1} C_l C_0^{-1}) referred
    to chi-square with d^2 (m - fitted_lag_count) degrees of freedom.
    """
    e = np.asarray(residuals, dtype=float)
    d, T = e.shape
    if max_lag <= fitted_lag_count:
        raise ValueError("max_lag must exceed the number of fitted lags")
    if max_lag >= T:
        raise ValueError("max_lag must be below the series length")
    e = e - e.mean(axis=1, keepdims=True)
    c0 = e @ e.T / T
    q = 0.0
    for l in range(1, max_lag + 1):
        cl = e[:, l:] @ e[:, :T - l].T / T
        a = sla.solve(c0, cl, assume_a="pos")
        b = sla.solve(c0, cl.T, assume_a="pos")
        q += float(np.sum(a * b.T)) / (T - l)
    q *= T * T
    df = d * d * (max_lag - fitted_lag_count)
    return PortmanteauResult(statistic=q, df=df, pvalue=float(chi2.sf(q, df)))


def simulate_model(model, T, seed):
    """Simulate observations: latent Gaussian VAR path mapped through the margins."""
    from .margins import from_normal

    z = simulate(model.var(), T, seed)
    d = model.partition.d
    return np.vstack([from_normal(z[i], model.margins[i]) for i in range(d)])
