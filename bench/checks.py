"""Output checks.  None of these run inside a timed region.

Per operation, a problem list (empty means correct):

* a fit fails on an exception, a non-finite or barrier-sized (<= -1e8)
  log-likelihood in ``loglik`` or ``stage_logliks``, a fitted correlation
  matrix that is not positive definite, or a ``loglik`` that differs from
  ``loglik_full`` recomputed on the returned model;
* ``construct`` fails unless it exits 0 and writes the model that
  ``construct_model`` builds in-process;
* ``verify`` fails unless it exits 0 and prints "verification PASSED".

Once per run: the likelihood against the dense oracle, bit-identical
resimulation, and sample latent correlations against the model.
"""

import math

import numpy as np

from mcvar import estimation, linalg, margins, varprocess
from mcvar.estimation import Model
from oracles import copula_loglik_oracle

# Objective values at or below this are the optimiser's PD barrier, never a
# real log-likelihood.
BARRIER_LOGLIK = -1e8
# Recomputed log-likelihood must agree to this, relative to max(1, |loglik|).
LOGLIK_RTOL = 1e-9
# Criterion 11's tolerance for the dense oracle.
ORACLE_TOL = 1e-8
# The oracle builds a (T d) x (T d) covariance, so it scores a prefix only.
ORACLE_T = 200
# Sample autocorrelations at lags 0..CORR_LAGS must lie within
# CORR_SCALE / sqrt(T) of the model's; see sample_correlation_gap.
CORR_LAGS = 3
CORR_SCALE = 10.0
# A model file written by construct must match construct_model to this.
MODEL_FILE_TOL = 1e-12


def fit_problems(fm, data, k):
    """Why a fitted model is wrong; empty when it is correct."""
    problems = []
    values = [("loglik", fm.loglik)]
    for stage, v in fm.stage_logliks.items():
        for m, x in enumerate(v if isinstance(v, (list, tuple)) else [v]):
            values.append(("%s[%d]" % (stage, m), x))
    for name, x in values:
        if not math.isfinite(x) or x <= BARRIER_LOGLIK:
            problems.append("%s is %r" % (name, x))
    r = fm.model.time_major_R()
    try:
        pd = linalg.is_positive_definite(r)
    except ValueError as exc:
        pd = False
        problems.append("fitted R rejected: %s" % exc)
    if not pd:
        problems.append("fitted R is not positive definite")
        return problems
    redo = estimation.loglik_full(data, fm.model.margins, r, k)
    if not abs(redo - fm.loglik) <= LOGLIK_RTOL * max(1.0, abs(fm.loglik)):
        problems.append("loglik %r but loglik_full gives %r" % (fm.loglik, redo))
    return problems


def model_file_problems(doc, model):
    """Differences between a written model file and the in-process model."""
    got = Model.from_dict(doc)
    if len(got.subs) != len(model.subs) or len(got.crosses) != len(model.crosses):
        return ["model file has a different structure"]
    pairs = [(a, b) for s, t in zip(got.subs, model.subs) for a, b in zip(s.blocks, t.blocks)]
    pairs += [(a, b) for s, t in zip(got.crosses, model.crosses) for a, b in zip(s.blocks, t.blocks)]
    gap = max(float(np.max(np.abs(a - b))) for a, b in pairs)
    return [] if gap <= MODEL_FILE_TOL else ["model file blocks differ by %.3g" % gap]


def oracle_gap(data, model):
    """|loglik_full - dense oracle| on the first ORACLE_T observations."""
    x = np.asarray(data)[:, :ORACLE_T]
    r = model.time_major_R()
    ll = estimation.loglik_full(x, model.margins, r, model.k)
    ref = copula_loglik_oracle(x, model.margins, r, model.k,
                               pit=margins.pit_to_normal)
    return abs(ll - ref)


def sample_correlation_gap(x, model):
    """Largest |sample - model| latent correlation over lags 0..CORR_LAGS,
    and the tolerance CORR_SCALE / sqrt(T) it is held to.

    The sample scores come from the true margins.  With T=2000 the bound is
    0.22 and with T=100,000 it is 0.032: several standard errors for the
    persistent processes used here, yet far below the error of a wrong
    correlation structure or a wrong margin transform.
    """
    d, T = x.shape
    z = np.vstack([margins.pit_to_normal(x[i], model.margins[i]) for i in range(d)])
    stats = varprocess.sample_statistics(z, CORR_LAGS)
    scale = 1.0 / np.sqrt(np.diag(stats.autocov[0]))
    want = varprocess.implied_autocov(model.var(), CORR_LAGS)
    gap = max(float(np.max(np.abs(s * np.outer(scale, scale) - w)))
              for s, w in zip(stats.autocov, want))
    return gap, CORR_SCALE / math.sqrt(T)
