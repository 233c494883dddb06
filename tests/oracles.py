"""Independent reference implementations used to freeze expected test values.

Everything here is written against the mathematical definitions with plain
numpy (explicit inverses, probing of affine maps, quadrature), deliberately
avoiding the package's own Kronecker plumbing and conditional-density
decompositions.
"""

import numpy as np
from scipy import integrate, optimize


def _blk(blocks, l):
    return blocks[l] if l >= 0 else blocks[-l].T


def predictors_oracle(blocks):
    """Forward and backward prediction coefficients and errors by explicit inverse.

    blocks: list of covariance blocks Sigma_0..Sigma_k.  Returns (fwd, bwd,
    fwd_err, bwd_err): element m-1 of fwd or bwd multiplies Z_{t-m} when
    predicting Z_t (forward) or Z_{t-k-1} (backward), and the errors are the
    covariances Sigma_0 - c gram^-1 c^T of the two predictions, c the
    covariance of the predicted point with the window.
    """
    k = len(blocks) - 1
    d = blocks[0].shape[0]
    gram = np.block([[_blk(blocks, c - r) for c in range(k)] for r in range(k)])
    gi = np.linalg.inv(gram)
    cf = np.hstack([_blk(blocks, l) for l in range(1, k + 1)])
    cb = np.hstack([_blk(blocks, l) for l in range(-k, 0)])
    fs, bs = cf @ gi, cb @ gi
    fwd = [fs[:, m * d:(m + 1) * d] for m in range(k)]
    bwd = [bs[:, m * d:(m + 1) * d] for m in range(k)]
    return fwd, bwd, blocks[0] - fs @ cf.T, blocks[0] - bs @ cb.T


def cross_condition_residuals(blocks_i, blocks_j, labels, cross):
    """Residual blocks of the selected closure conditions at a candidate.

    cross: dict lag -> Sigma_{ij,lag} for every lag in -k..k.  The i-side
    conditions constrain Sigma_{ij,r} (label 1) or Sigma_{ij,r-k-1} (label 2)
    for r = 1..k; the j-side conditions are the transposed analogues.
    """
    k = len(blocks_i) - 1
    fwd_i, bwd_i, _, _ = predictors_oracle(blocks_i)
    fwd_j, bwd_j, _, _ = predictors_oracle(blocks_j)

    def s(l):
        return cross[l]

    res = []
    for r in range(1, k + 1):
        if labels[0] == 1:
            res.append(s(r) - sum(fwd_i[m - 1] @ s(r - m) for m in range(1, k + 1)))
        else:
            res.append(s(r - k - 1) - sum(bwd_i[m - 1] @ s(r - m) for m in range(1, k + 1)))
        if labels[1] == 1:
            res.append(s(-r) - sum(s(m - r) @ fwd_j[m - 1].T for m in range(1, k + 1)))
        else:
            res.append(s(k + 1 - r) - sum(s(m - r) @ bwd_j[m - 1].T for m in range(1, k + 1)))
    return res


def dense_cross_solve(blocks_i, blocks_j, labels, fixed_lag, fixed_value):
    """Solve the closure conditions by probing the affine residual map.

    Independent of any banded-matrix or vec/Kronecker construction: the
    unknown blocks are probed entry by entry, the resulting dense linear
    system is solved directly.  Returns dict lag -> block for lag in -k..k.
    """
    k = len(blocks_i) - 1
    di = blocks_i[0].shape[0]
    dj = blocks_j[0].shape[0]
    free = [l for l in range(-k, k + 1) if l != fixed_lag]
    step = di * dj
    n = len(free) * step

    def unpack(x):
        cross = {fixed_lag: np.asarray(fixed_value, dtype=float)}
        for m, l in enumerate(free):
            cross[l] = x[m * step:(m + 1) * step].reshape(di, dj)
        return cross

    def resid(x):
        res = cross_condition_residuals(blocks_i, blocks_j, labels, unpack(x))
        return np.concatenate([r.ravel() for r in res])

    r0 = resid(np.zeros(n))
    cols = np.empty((r0.size, n))
    for m in range(n):
        e = np.zeros(n)
        e[m] = 1.0
        cols[:, m] = resid(e) - r0
    # Mixed-label systems can be singular when the two coefficient spectra
    # share an eigenvalue; the residual at zero is exactly zero there, so the
    # minimum-norm solution is the intended all-zero cross-dependence.
    x = np.linalg.lstsq(cols, -r0, rcond=None)[0]
    return unpack(x)


def partial_autocorr_oracle(gammas, lag):
    """Partial autocorrelation at a lag from a scalar autocovariance sequence.

    Conditional correlation of (X_t, X_{t-lag}) given the strictly
    intermediate values, computed by explicit inversion.
    """
    n = lag + 1
    big = np.array([[gammas[abs(r - c)] for c in range(n)] for r in range(n)])
    head = [0, lag]
    mid = list(range(1, lag))
    if not mid:
        return big[0, lag] / big[0, 0]
    s_hh = big[np.ix_(head, head)]
    s_hm = big[np.ix_(head, mid)]
    s_mm = big[np.ix_(mid, mid)]
    cond = s_hh - s_hm @ np.linalg.inv(s_mm) @ s_hm.T
    return cond[0, 1] / np.sqrt(cond[0, 0] * cond[1, 1])


def skewt_cdf_quadrature(x, pdf, center=0.0):
    """Distribution function by adaptive quadrature of a density.

    Integrates from whichever tail is closer to ``center`` so the adaptive
    rule never loses the density peak far from a finite endpoint.
    """
    if x <= center:
        val, _ = integrate.quad(pdf, -np.inf, x, limit=200)
        return val
    upper, _ = integrate.quad(pdf, x, np.inf, limit=200)
    return 1.0 - upper


def skewt_quantile_root(u, pdf, lo=-1e6, hi=1e6):
    """Quantile by root finding on the quadrature distribution function."""
    return optimize.brentq(lambda s: skewt_cdf_quadrature(s, pdf) - u, lo, hi, xtol=1e-12)


def from_normal_exact(z, margin):
    """``margins.from_normal`` of a skew-t margin without its table.

    The exact ``quantile`` of each clamped score's normal probability; a
    score above 0 goes through the mirror image Q_{a,b}(1 - q) = -Q_{b,a}(q)
    at q = Phi(-z), so no probability rounded near 1 is formed.
    """
    from scipy.special import ndtr, ndtri

    from mcvar.margins import PIT_CLAMP, MarginSpec, quantile

    loc, scale, a, b = margin.params
    z_max = -ndtri(PIT_CLAMP)
    z = np.clip(np.asarray(z, dtype=float), -z_max, z_max)
    up = z > 0
    s = np.empty_like(z)
    s[~up] = quantile(ndtr(z[~up]), MarginSpec("skewt", (0.0, 1.0, a, b)))
    s[up] = -quantile(ndtr(-z[up]), MarginSpec("skewt", (0.0, 1.0, b, a)))
    return loc + scale * s


def copula_loglik_oracle(data, margins, r_tm, k, pit):
    """Joint Gaussian-copula log density through one big T*d covariance.

    No sequential conditioning: the latent scores are scored against the
    block Toeplitz correlation of the whole sample, with lag blocks beyond k
    extended through the autoregression implied by the first k+1 slices.
    ``pit`` maps (x_row, margin) to normal scores so the same margin
    transform is used by both routes.
    """
    data = np.asarray(data, dtype=float)
    d, T = data.shape
    big = dense_covariance(r_tm, d, k, T)
    z = np.vstack([pit(data[i], margins[i]) for i in range(d)])
    zvec = z.T.ravel()  # time-increasing stacking matches block (a, b) = Sigma_{a-b}

    sign, logdet = np.linalg.slogdet(big)
    assert sign > 0, "oracle covariance must be positive definite"
    quad = zvec @ np.linalg.inv(big) @ zvec
    ll = -0.5 * (T * d * np.log(2.0 * np.pi) + logdet + quad)

    from mcvar.margins import logpdf as margin_logpdf
    for i in range(d):
        ll += float(np.sum(margin_logpdf(data[i], margins[i])))
        ll += 0.5 * float(np.sum(np.log(2.0 * np.pi) + z[i] * z[i]))
    return ll


def dense_covariance(r_tm, d, k, T):
    """Block Toeplitz correlation of T consecutive observations, block (a, b) = Sigma_{a-b}.

    The lags 0..k are the first block row of the time-major ``r_tm``; lags
    beyond k are extended through the autoregression they imply.
    """
    slices = [np.asarray(r_tm[:d, l * d:(l + 1) * d], dtype=float) for l in range(k + 1)]
    gram = np.block([[_blk(slices, c - r) for c in range(k)] for r in range(k)])
    stacked = np.hstack([_blk(slices, l) for l in range(1, k + 1)]) @ np.linalg.inv(gram)
    phis = [stacked[:, m * d:(m + 1) * d] for m in range(k)]
    while len(slices) < T:
        l = len(slices)
        slices.append(sum(phis[m] @ _blk(slices, l - 1 - m) for m in range(k)))
    return np.block([[_blk(slices, a - b) for b in range(T)] for a in range(T)])


def information_oracle(build, theta, d, k, T, h=1e-5):
    """Expected information 1/2 tr(S^-1 S_a S^-1 S_b) of T observations at theta.

    S is the :func:`dense_covariance` of the time-major R that ``build(theta)``
    returns, inverted explicitly, and S_a its central difference along
    parameter a at step h.
    """
    theta = np.asarray(theta, dtype=float)
    sinv = np.linalg.inv(dense_covariance(build(theta), d, k, T))
    tangents = [(dense_covariance(build(theta + h * e), d, k, T)
                 - dense_covariance(build(theta - h * e), d, k, T)) / (2.0 * h)
                for e in np.eye(theta.size)]
    return np.array([[0.5 * np.trace(sinv @ sa @ sinv @ sb) for sb in tangents]
                     for sa in tangents])


def random_stationary_var(rng, d, k, radius=0.6):
    """Random stationary VAR(k): scaled random coefficients, random SPD innovation."""
    from mcvar.varprocess import VarRepresentation

    while True:
        phis = [rng.standard_normal((d, d)) * 0.5 for _ in range(k)]
        comp = np.zeros((d * k, d * k))
        comp[:d] = np.hstack(phis)
        if k > 1:
            comp[d:, :-d] = np.eye(d * (k - 1))
        sr = np.max(np.abs(np.linalg.eigvals(comp)))
        if sr < 1e-6:
            continue
        scale = radius / sr
        phis = [p * scale ** (m + 1) for m, p in enumerate(phis)]
        a = rng.standard_normal((d, d))
        sigma = a @ a.T + 0.3 * np.eye(d)
        return VarRepresentation(phi=tuple(phis), sigma=sigma)


def random_subprocess_corr(rng, d, k, radius=0.6):
    """Random valid correlation blocks Sigma_0..Sigma_k of a stationary VAR."""
    from mcvar.closure import SubprocessCorr
    from mcvar.varprocess import implied_autocov

    var = random_stationary_var(rng, d, k, radius)
    gams = implied_autocov(var, k)
    scale = 1.0 / np.sqrt(np.diag(gams[0]))
    blocks = []
    for l, g in enumerate(gams):
        b = g * np.outer(scale, scale)
        if l == 0:
            b = 0.5 * (b + b.T)
            np.fill_diagonal(b, 1.0)
        blocks.append(b)
    return SubprocessCorr(blocks=tuple(blocks))


def fit_margin_nelder_mead(x, family="skewt"):
    """Skew-t maximum likelihood by multi-start Nelder-Mead on values alone.

    The derivative-free fit the package used before its closed-form score:
    three (a, b) starts, the box |log scale - log sd| <= 12, -6 < log a,
    log b < 12 as +inf, and a MarginSpec per evaluation.  Returns
    (spec, loglik, converged) of the best start.
    """
    from mcvar.margins import MarginSpec, logpdf

    assert family == "skewt"
    x = np.asarray(x, dtype=float).ravel()
    m, sd = float(np.mean(x)), float(np.std(x))

    def nll(theta):
        loc, lsc, la, lb = theta
        if abs(lsc - np.log(sd)) > 12.0 or not (-6.0 < la < 12.0) or not (-6.0 < lb < 12.0):
            return np.inf
        spec = MarginSpec("skewt", (loc, np.exp(lsc), np.exp(la), np.exp(lb)))
        return -float(np.sum(logpdf(x, spec)))

    best = None
    for a0, b0 in ((3.0, 3.0), (2.0, 6.0), (6.0, 2.0)):
        res = optimize.minimize(nll, np.array([m, np.log(sd), np.log(a0), np.log(b0)]),
                                method="Nelder-Mead",
                                options={"maxiter": 4000, "xatol": 1e-8, "fatol": 1e-10})
        if best is None or res.fun < best.fun:
            best = res
    loc, lsc, la, lb = best.x
    spec = MarginSpec("skewt", (loc, np.exp(lsc), np.exp(la), np.exp(lb)))
    return spec, -float(best.fun), bool(best.success)


def fit_margin_three_starts(x):
    """Skew-t maximum likelihood from the three starts ``fit_margin`` ran
    before one sufficed: (a, b) = (3, 3), (2, 6) and (6, 2) at the sample
    median and log(IQR/1.349), each a projected Newton run of
    ``optim.minimize`` on ``margins._skewt_objective`` in the same box,
    the best kept.  Returns (loglik, interior), interior meaning more than
    1e-9 max(1, |theta|) inside the box on every coordinate.
    """
    from mcvar.margins import _MAXITER, _skewt_objective
    from mcvar.optim import minimize

    x = np.asarray(x, dtype=float).ravel()
    q1, m, q3 = np.percentile(x, [25.0, 50.0, 75.0])
    lsp = np.log((q3 - q1) / 1.349 or np.std(x))
    lo = np.array([-np.inf, lsp - 12.0, -6.0, -6.0])
    hi = np.array([np.inf, lsp + 12.0, 12.0, 12.0])
    nll = _skewt_objective(x)
    runs = [minimize(nll, np.array([m, lsp, np.log(a0), np.log(b0)]), _MAXITER, nll.curvature,
                     box=(lo, hi), refresh=True)
            for a0, b0 in ((3.0, 3.0), (2.0, 6.0), (6.0, 2.0))]
    best = min(runs, key=lambda res: res.fun)
    tol = 1e-9 * np.maximum(1.0, np.abs(best.x))
    return -float(best.fun), bool(np.all((best.x > lo + tol) & (best.x < hi - tol)))


def three_starts(n_theta, moment):
    """Zeros, then the moment estimate ``moment()`` and half of it unless it fails.

    The starts the dependence stages ran from before one run from zeros
    sufficed; the Nelder-Mead oracles keep them.
    """
    try:
        m = moment()
    except np.linalg.LinAlgError:
        return [np.zeros(n_theta)]
    return [np.zeros(n_theta), m, 0.5 * m]


def sample_corr(z, k):
    """Sample autocovariances of lags 0..k scaled by the lag-0 standard deviations."""
    from mcvar.varprocess import sample_statistics

    stats = sample_statistics(z, k)
    scale = 1.0 / np.sqrt(np.diag(stats.autocov[0]))
    return [stats.autocov[l] * np.outer(scale, scale) for l in range(k + 1)]


def moment_corr(z, k):
    """Sample correlation blocks of a latent series, normalized to unit diagonal."""
    from mcvar.closure import SubprocessCorr

    blocks = sample_corr(z, k)
    b0 = 0.5 * (blocks[0] + blocks[0].T)
    np.fill_diagonal(b0, 1.0)
    return SubprocessCorr(blocks=tuple([b0] + blocks[1:]))


def moment_fixed_blocks(z, partition, labels, k):
    """Sample cross correlations at each pair's fixed lag."""
    from mcvar import estimation as est
    from mcvar.closure import CrossFixedBlock, fixed_lag_for_labels
    from mcvar.linalg import _lag_block

    norm = sample_corr(z, k)
    out = []
    for i, j in est._pair_list(partition.n):
        lag = fixed_lag_for_labels((labels[i], labels[j]), k)
        block = _lag_block(norm, lag)[np.ix_(list(partition.sets[i]), list(partition.sets[j]))]
        out.append(CrossFixedBlock(pair=(i, j), lag=lag, value=block))
    return out


def scalar_stage2_nelder_mead(z, k):
    """Scalar sub-process quasi-MLE by multi-start Nelder-Mead on values alone.

    The derivative-free stage 2 the package used before its closed-form
    score, on the parametrisation it used then: the value-only likelihood
    kernel at tanh-mapped partial autocorrelations, mapped to
    autocorrelations by this module's own Durbin-Levinson recursion
    (:func:`durbin_levinson_scalar`), from zeros, the sample moments and half
    of them.  ``z`` is a (1, T) latent series.  Returns (corr, loglik,
    converged).
    """
    from mcvar import estimation as est
    from mcvar.closure import SubprocessCorr

    def corr(theta):
        rho = durbin_levinson_scalar(np.tanh(theta), given="pacf")[0]
        return SubprocessCorr(blocks=tuple(np.array([[v]]) for v in [1.0] + rho))

    z = np.asarray(z, dtype=float).reshape(1, -1)
    nll = _value_objective(est.lag_gram(z, k), k, lambda theta: corr(theta).toeplitz())
    moments = moment_corr(z, k)
    m0 = np.arctanh(durbin_levinson_scalar([moments.block(l)[0, 0] for l in range(1, k + 1)],
                                           given="acf")[1])
    best = nelder_mead(nll, (np.zeros(k), m0, 0.5 * m0), 4000)
    return corr(best.x), -float(best.fun), bool(best.success)


def durbin_levinson_scalar(values, given):
    """Scalar Durbin-Levinson recursion in plain arithmetic, so on floats and on
    mpmath numbers alike.

    ``values`` are the autocorrelations rho_1..rho_k (``given="acf"``) or the
    partial autocorrelations pi_1..pi_k (``given="pacf"``).  Returns (rho,
    pi, predictors, variances) as lists: the predictor of order m holds the
    coefficients of z_{t-1}..z_{t-m} and the variance of order m is
    prod_{j <= m} (1 - pi_j^2), for m = 0..k.
    """
    rho, pacf, preds, variances = [], [], [[]], [1]
    for m, x in enumerate(values):
        phi, v = preds[-1], variances[-1]
        fitted = sum(c * rho[m - 1 - j] for j, c in enumerate(phi))
        p = x if given == "pacf" else (x - fitted) / v
        rho.append(fitted + p * v if given == "pacf" else x)
        pacf.append(p)
        preds.append([a - p * b for a, b in zip(phi, phi[::-1])] + [p])
        variances.append(v * (1 - p * p))
    return rho, pacf, preds, variances


def nelder_mead(nll, starts, maxiter):
    """Multi-start Nelder-Mead on values alone, the first lowest run winning.

    The derivative-free optimiser the dependence stages used before their
    closed-form scores: a start that scores +inf is skipped, and each run
    stops on the simplex tolerances xatol 1e-7, fatol 1e-9.
    """
    runs = [optimize.minimize(nll, x0, method="Nelder-Mead",
                              options={"maxiter": maxiter, "xatol": 1e-7, "fatol": 1e-9})
            for x0 in starts if np.isfinite(nll(x0))]
    return min(runs, key=lambda res: res.fun)


def _value_objective(gram, k, build):
    """Negative latent log likelihood of ``build(theta)``, +inf if it raises LinAlgError."""
    from mcvar import estimation as est

    def nll(theta):
        try:
            return -est.gaussian_var_loglik(gram, build(theta), k)
        except np.linalg.LinAlgError:
            return np.inf

    return nll


def stage2_nelder_mead(z, indices, k):
    """Raw-entry stage 2 of a sub-process with d > 1 by multi-start Nelder-Mead.

    The value-only kernel at the raw-entry Toeplitz matrix, filled from a
    table of parameter indices, from the stage's three starts.  Returns the latent log likelihood of the best run.
    """
    from mcvar import estimation as est

    z = np.asarray(z, dtype=float)[list(indices)]
    d = len(indices)
    # the parameter index of every Toeplitz entry, -1 on the unit diagonal
    ii, jj = np.tril_indices(d, -1)
    lag0 = np.full((d, d), -1)
    lag0[ii, jj] = lag0[jj, ii] = np.arange(ii.size)
    lags = [lag0] + list(ii.size + np.arange(k * d * d).reshape(k, d, d))
    index = np.block([[_blk(lags, s - r) for s in range(k + 1)] for r in range(k + 1)])
    free = index >= 0

    def build(theta):
        r = np.eye((k + 1) * d)
        r[free] = theta[index[free]]
        return r

    starts = three_starts(est._sub_theta_len(d, k), lambda: est._corr_to_theta(moment_corr(z, k)))
    return -float(nelder_mead(_value_objective(est.lag_gram(z, k), k, build), starts, 4000).fun)


def theta_to_corr(theta, d, k):
    """The SubprocessCorr of a sub-process's parameter vector: the strict lower
    triangle of its lag-0 correlation (``np.tril_indices`` order), then its k
    lag matrices, row-major."""
    from mcvar.closure import SubprocessCorr

    theta = np.asarray(theta, dtype=float)
    ii, jj = np.tril_indices(d, -1)
    lag0 = np.eye(d)
    lag0[ii, jj] = lag0[jj, ii] = theta[:ii.size]
    return SubprocessCorr(blocks=(lag0, *theta[ii.size:].reshape(k, d, d)))


def unpack_fixed(theta, partition, labels, k):
    """The CrossFixedBlock of every pair i < j, in lexicographic order, from the
    fixed blocks' entries in ``theta``, each block row-major at the lag its labels fix."""
    from mcvar.closure import CrossFixedBlock, fixed_lag_for_labels

    dims = [len(s) for s in partition.sets]
    pairs = [(i, j) for i in range(partition.n) for j in range(i + 1, partition.n)]
    cuts = np.cumsum([dims[i] * dims[j] for i, j in pairs])[:-1]
    return [CrossFixedBlock(pair=(i, j), lag=fixed_lag_for_labels((labels[i], labels[j]), k),
                            value=np.reshape(t, (dims[i], dims[j])))
            for (i, j), t in zip(pairs, np.split(np.asarray(theta, dtype=float), cuts))]


def affine_time_major(partition, labels, k, subs):
    """(r0, basis) with time-major R(theta) = r0 + sum_m theta_m basis[m] over the
    fixed blocks theta, by n_theta + 1 exact closure builds, differenced.

    Given the sub-processes, the closure solve and the assembly are both
    linear in the fixed blocks, so the differences of the builds at zero and
    at each unit vector are the whole map.
    """
    from mcvar import estimation as est
    from mcvar.closure import _cross_solutions, assemble_full_R

    n_theta = sum(len(partition.sets[i]) * len(partition.sets[j])
                  for i, j in est._pair_list(partition.n))

    def exact(theta):
        fixed = unpack_fixed(theta, partition, labels, k)
        return assemble_full_R(partition, subs, _cross_solutions(subs, labels, fixed))

    r0 = exact(np.zeros(n_theta))
    return r0, np.stack([exact(e) - r0 for e in np.eye(n_theta)])


def stage3_nelder_mead(z, subs, labels, partition, k):
    """Stage 3 by multi-start Nelder-Mead on its affine map from
    :func:`affine_time_major`, from the stage's three starts.  Returns the
    latent log likelihood of the best run."""
    from mcvar import estimation as est

    r0, basis = affine_time_major(partition, labels, k, subs)
    starts = three_starts(len(basis), lambda: est._pack_fixed(
        moment_fixed_blocks(z, partition, labels, k)))
    nll = _value_objective(est.lag_gram(z, k), k, lambda theta: r0 + np.tensordot(theta, basis, 1))
    return -float(nelder_mead(nll, starts, 4000).fun)


def stage4_nelder_mead(z, partition, labels, subs, fixed_blocks, k):
    """Stage 4 by one Nelder-Mead run from the warm start, every evaluation an
    exact closure build of validated sub-process and fixed-block containers.
    Returns the better latent log likelihood of the run and the input point."""
    from mcvar import estimation as est
    from mcvar.closure import _cross_solutions, assemble_full_R

    dims = [len(s) for s in partition.sets]
    cuts = np.cumsum([est._sub_theta_len(d, k) for d in dims])

    def exact(subs, fixed):
        return assemble_full_R(partition, subs, _cross_solutions(subs, labels, fixed))

    def build(theta):
        *sub_thetas, cross_theta = np.split(theta, cuts)
        return exact([theta_to_corr(t, d, k) for t, d in zip(sub_thetas, dims)],
                     unpack_fixed(cross_theta, partition, labels, k))

    gram = est.lag_gram(z, k)
    x0 = np.concatenate([est._corr_to_theta(s) for s in subs] + [est._pack_fixed(fixed_blocks)])
    res = nelder_mead(_value_objective(gram, k, build), [x0], 8000)
    start = est.gaussian_var_loglik(gram, exact(subs, fixed_blocks), k)
    return max(-float(res.fun), start)


def block_toeplitz_oracle(lag_block, k):
    """Matrix of (k+1) x (k+1) blocks with block (r, s) = lag_block(s - r), by np.block."""
    return np.block([[lag_block(s - r) for s in range(k + 1)] for r in range(k + 1)])


def assemble_oracle(subs, crosses):
    """Sub-process-major R by np.block: the sub-process Toeplitz matrices on the
    diagonal, each pair's cross Toeplitz matrix above it and its transpose below."""
    k = subs[0].order
    n = len(subs)
    by_pair = {c.pair: block_toeplitz_oracle(c.block, k) for c in crosses}
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(block_toeplitz_oracle(subs[i].block, k))
            else:
                row.append(by_pair[(i, j)] if i < j else by_pair[(j, i)].T)
        rows.append(row)
    return np.block(rows)


def closure_residuals_oracle(r, partition, k):
    """(cond1, cond2, markov) residuals of each sub-process, one conditioning per residual.

    The slow form of :func:`mcvar.closure.verify_closure`: the time-major R
    is extended to k+2 slices with the VAR(k) coefficients of
    :func:`predictors_oracle`, and each residual is the largest absolute
    entry of its own conditional cross covariance Sigma_xy - Sigma_xv
    Sigma_vv^-1 Sigma_vy given the own intermediates v, by an explicit solve.
    """
    d = partition.d
    blocks = [r[:d, l * d:(l + 1) * d] for l in range(k + 1)]
    fwd = predictors_oracle(blocks)[0]
    blocks.append(sum(fwd[m] @ blocks[k - m] for m in range(k)))
    big = block_toeplitz_oracle(lambda l: _blk(blocks, l), k + 1)
    out = []
    for s in partition.sets:
        now = list(s)
        far = [(k + 1) * d + v for v in s]
        given = [r_ * d + v for r_ in range(1, k + 1) for v in s]
        others = [r_ * d + v for r_ in range(1, k + 1) for v in range(d) if v not in s]

        def residual(x, y):
            if not y:
                return 0.0
            cov = big[np.ix_(x, y)] - big[np.ix_(x, given)] @ np.linalg.solve(
                big[np.ix_(given, given)], big[np.ix_(given, y)])
            return float(np.max(np.abs(cov)))

        out.append((residual(now, others), residual(far, others), residual(now, far)))
    return out


def time_major_index(partition, k):
    """Positions of the time-major order in the sub-process-major order, by labels.

    Sub-process-major order, the layout of :func:`assemble_oracle`, lists each
    set's variables at lags 0..k in turn; time-major order lists all d
    variables at lag 0, then at lag 1, and so on.  Each time-major label
    (lag, variable) is looked up in the sub-process-major list, so
    ``a[np.ix_(idx, idx)]`` is ``a`` in time-major order.
    """
    labels = [(r, v) for s in partition.sets for r in range(k + 1) for v in s]
    return [labels.index((r, v)) for r in range(k + 1) for v in range(partition.d)]


def seeded_normals_oracle(seed, shape):
    """``varprocess.seeded_normals`` from integer draws: PCG64's 53-bit integers
    n, the uniforms (n + 0.5) * 2^-53, then the inverse normal CDF."""
    from scipy.special import ndtri

    rng = np.random.Generator(np.random.PCG64(seed))
    return ndtri((rng.integers(0, 2**53, size=shape).astype(float) + 0.5) * 2.0**-53)


def simulate_oracle(var, T, seed, dtype=float):
    """Stationary VAR path by the per-lag recursion on a d x T buffer.

    Same draws and stationary start as ``varprocess.simulate``: the first k
    columns from a Cholesky factor of the block Toeplitz covariance of
    (Z_1, ..., Z_k), then Z_t = Le eps_t + sum_m Phi_m Z_{t-m}, one lag
    at a time in the order m = 1..k.  The start and the shocks Le eps_t are
    float64; the recursion runs in ``dtype`` (``np.longdouble`` for a
    reference more exact than any float64 path from the same start).
    """
    from mcvar.varprocess import implied_autocov, seeded_normals

    d, k = var.d, var.k
    gam = implied_autocov(var, max(k - 1, 0))
    init_cov = np.block([[_blk(gam, r - s) for s in range(k)] for r in range(k)])
    L0 = np.linalg.cholesky(0.5 * (init_cov + init_cov.T))
    Le = np.linalg.cholesky(var.sigma)
    phi = [p.astype(dtype) for p in var.phi]

    eps = seeded_normals(seed, (d, T))
    z = np.empty((d, T), dtype=dtype)
    z[:, :k] = (L0 @ eps[:, :k].reshape(-1, order="F")).reshape((d, k), order="F")
    shocks = Le @ eps[:, k:]
    for t in range(k, T):
        acc = shocks[:, t - k].astype(dtype)
        for m in range(k):
            acc = acc + phi[m] @ z[:, t - 1 - m]
        z[:, t] = acc
    return z


def var_residuals_oracle(z, var):
    """One-step VAR residuals Z_t - sum_m Phi_m Z_{t-m}, t = k..T-1, one column at a time."""
    k = var.k
    return np.column_stack([z[:, t] - sum(var.phi[m] @ z[:, t - 1 - m] for m in range(k))
                            for t in range(k, z.shape[1])])


def simulate_model_oracle(model, T, seed):
    """``estimation.simulate_model`` as one ``from_normal`` call per variable on its
    whole row of the latent path of ``varprocess.simulate``, stacked by ``np.vstack``."""
    from mcvar.margins import from_normal
    from mcvar.varprocess import simulate

    z = simulate(model.var(), T, seed)
    return np.vstack([from_normal(z[i], margin) for i, margin in enumerate(model.margins)])


def unvec(x, rows, cols):
    """Inverse of column-major vec, ``a.reshape(-1, order="F")``, for a ``rows x cols`` matrix."""
    return np.asarray(x, dtype=float).reshape((rows, cols), order="F")


def commutation_matrix(m, n):
    """Permutation matrix K with K @ vec(A) = vec(A.T) for every m x n A.

    Parameters
    ----------
    m, n : int
        Row and column counts of the matrices K acts on; both >= 1.
    """
    if m < 1 or n < 1:
        raise ValueError("commutation_matrix requires m, n >= 1")
    K = np.zeros((m * n, m * n))
    for i in range(m):
        for j in range(n):
            # vec(A) puts A[i, j] at j*m + i; vec(A.T) puts it at i*n + j
            K[i * n + j, j * m + i] = 1.0
    return K


def exchange_matrix(m):
    """m x m matrix with ones on the anti-diagonal, zeros elsewhere."""
    if m < 1:
        raise ValueError("exchange_matrix requires m >= 1")
    return np.fliplr(np.eye(m))


def is_positive_definite_oracle(a, tol):
    """True iff the smallest eigenvalue of (a + a.T)/2 exceeds ``tol``, by eigvalsh."""
    a = np.asarray(a, dtype=float)
    return bool(np.linalg.eigvalsh(0.5 * (a + a.T))[0] > tol)



def scalar_nll_mp(rho, z, dps=60):
    """Exact stationary Gaussian negative log likelihood of a scalar series ``z`` at
    autocorrelations ``rho`` = rho_1..rho_k, in mpmath at ``dps`` digits.

    Each z_t is predicted from the min(t, k) values before it by the
    Durbin-Levinson recursion (:func:`durbin_levinson_scalar`) run in mpmath
    on the autocorrelations, with prediction variance prod(1 - pi_m^2) over
    the partial autocorrelations pi_m; no correlation matrix is formed.
    """
    import mpmath

    with mpmath.workdps(dps):
        return _scalar_nll_mp([mpmath.mpf(float(r)) for r in rho], z)


def scalar_score_mp(rho, z, dps=60):
    """Gradient of :func:`scalar_nll_mp` by mpmath central differences at step 1e-20,
    whose truncation and rounding errors lie far below double precision."""
    import mpmath

    with mpmath.workdps(dps):
        h = mpmath.mpf(10) ** -20
        at = [mpmath.mpf(float(r)) for r in rho]
        steps = [[h if b == a else 0 for b in range(len(at))] for a in range(len(at))]
        return np.array([float((_scalar_nll_mp([t + s for t, s in zip(at, e)], z)
                                - _scalar_nll_mp([t - s for t, s in zip(at, e)], z)) / (2 * h))
                         for e in steps])


def _scalar_nll_mp(rho, z):
    import mpmath

    _, _, preds, variances = durbin_levinson_scalar(rho, given="acf")
    zs = [mpmath.mpf(float(v)) for v in np.ravel(z)]
    total = mpmath.mpf(0)
    for t, zt in enumerate(zs):
        m = min(t, len(rho))
        e = zt - sum(c * zs[t - 1 - j] for j, c in enumerate(preds[m]))
        total += mpmath.log(2 * mpmath.pi) + mpmath.log(variances[m]) + e * e / variances[m]
    return total / 2


def gaussian_condition_oracle(cov, head, tail):
    """Regression coefficient and Schur complement of ``head`` given ``tail`` through the
    explicit inverse of the tail block."""
    s_ht = cov[np.ix_(head, tail)]
    coeff = s_ht @ np.linalg.inv(cov[np.ix_(tail, tail)])
    return coeff, cov[np.ix_(head, head)] - coeff @ s_ht.T


def fmt_matrix_oracle(m, nd):
    """Rows of ``m`` printed one number at a time as "% 9.<nd>f", joined by single spaces;
    an entry below half a unit of the last printed digit prints as an unsigned zero."""
    tiny = 0.5 * 10.0 ** -nd
    return [" ".join("% 9.*f" % (nd, 0.0 if abs(v) < tiny else v) for v in row)
            for row in np.atleast_2d(np.asarray(m, dtype=float))]
