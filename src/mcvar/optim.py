"""The one multi-start optimiser driver of a fit: margins and stages 2-4.

Every objective returns (value, score) and scores a point as +inf where it
is infeasible.  A start that scores non-finite is skipped: a run from it
would only compare +inf values.  Where every point of a box is feasible
(the skew-t margins) each run is scipy's L-BFGS-B inside the box.
Elsewhere (stages 2-4) each run is :func:`_bfgs`, which halves a step that
lands on +inf.  The feasible sets are open, so halving from a feasible
point ends at a feasible one.  The dependence stages pass a curvature, the
expected (Fisher) information of the latent likelihood: stage 2 refreshes
it at every accepted iterate, so each step is a Fisher scoring step, and
stages 3 and 4, which start next to their optimum, take it once at the
start and update its inverse by BFGS.
"""

from types import SimpleNamespace

import numpy as np

# L-BFGS-B stops on a relative decrease below ftol or a projected score below
# scipy's gtol; its default ftol (2.2e-9) left skew-t margins up to 1e-4 nats
# short of the Nelder-Mead optimum, and 1e-12 ends runs at the optimum in a
# failed line search.
_LBFGSB = {"ftol": 1e-10}
# BFGS stops when the max-abs score is at most _GTOL, or when two steps in a
# row decrease the value by at most _FTOL relative to max(|value|, 1) (one
# such step can be a stall in a curved valley, not the optimum): 1e-13 of
# a stage value of a few thousand nats is a few 1e-10 nats, above the
# rounding noise of the likelihood kernel.  A step is halved at most
# _HALVINGS times; the Armijo test asks for _ARMIJO of the linear decrease.
# Curvature eigenvalues below _FLOOR of the largest are raised to it, so
# the inverse stays finite along a direction that the data barely inform.
_GTOL = 1e-5
_FTOL = 1e-13
_HALVINGS = 40
_ARMIJO = 1e-4
_FLOOR = 1e-8

SCORE, DECREASE, FLOOR, NO_DECREASE, WALL, MAXITER = (
    "converged: max-abs score at most %g" % _GTOL,
    "converged: relative decrease at most %g" % _FTOL,
    "converged: step halved to its floor without a decrease",
    "converged: L-BFGS-B line search found no decrease (ABNORMAL)",
    "stopped: step halved to its floor at +inf",
    "stopped: maxiter reached",
)
CONVERGED = (SCORE, DECREASE, FLOOR, NO_DECREASE)


def minimize(nll, starts, maxiter, box=None, curvature=None, refresh=False):
    """Minimise ``nll`` from every start that scores finite; the first lowest result wins.

    ``nll(x)`` returns (value, score).  With ``box``, a sequence of
    (low, high) pairs (None for no limit) inside which every point scores
    finite, each run is L-BFGS-B inside it; otherwise each run is
    :func:`_bfgs`.  ``curvature(x)`` returns a symmetric positive
    semi-definite Hessian approximation at x; the driver calls it only at
    the point ``nll`` evaluated last, which scored finite, so an objective
    may reuse that evaluation.  A BFGS run takes the floored inverse of
    ``curvature`` at its start, and with ``refresh`` at every accepted
    iterate in place of the BFGS update; without ``curvature`` it starts
    from the scaled identity.  At most ``maxiter`` iterations are made per
    run.

    The result is the winning run's ``x``, ``fun``, ``success`` and
    ``message``, with ``nfev``, ``nit`` and ``ninf`` (the evaluations that
    scored +inf) summed over all runs.  A BFGS run converged (``success``)
    when it stopped on the score, on the relative decrease or on a step
    halved to its floor at a finite value (:data:`CONVERGED`), not when it
    reached ``maxiter`` or halved a step to its floor at +inf.  An L-BFGS-B
    run reports scipy's verdict and message, except that one whose line
    search ends ABNORMAL at a finite value converged by the same rule as a
    BFGS step halved to its floor (:data:`NO_DECREASE`).  When every start
    is infeasible the result is +inf at the first start, with no run and no
    counts.
    """
    starts = [np.asarray(x0, dtype=float) for x0 in starts]
    ninf = 0

    def counted(x):
        nonlocal ninf
        value, score = nll(x)
        ninf += not np.isfinite(value)
        return value, score

    runs = []
    for x0 in starts:
        f0, g0 = nll(x0)
        if not np.isfinite(f0):
            continue
        if box is None:
            runs.append(_bfgs(counted, x0, f0, np.asarray(g0, dtype=float), maxiter,
                              curvature, refresh))
            continue
        from scipy import optimize  # L-BFGS-B runs only here; import mcvar stays light

        res = optimize.minimize(counted, x0, method="L-BFGS-B", jac=True, bounds=box,
                                options=dict(_LBFGSB, maxiter=maxiter))
        if res.message.startswith("ABNORMAL") and np.isfinite(res.fun):
            res.success, res.message = True, NO_DECREASE
        runs.append(res)
    if not runs:
        return SimpleNamespace(x=starts[0], fun=np.inf, success=False,
                               message="no start scores finite", nfev=0, nit=0, ninf=0)
    best = min(runs, key=lambda res: res.fun)
    return SimpleNamespace(
        x=best.x, fun=float(best.fun), success=bool(best.success), message=str(best.message),
        nfev=sum(r.nfev for r in runs), nit=sum(r.nit for r in runs), ninf=ninf)


def _floored_inverse(c):
    """Inverse of a symmetric curvature whose eigenvalues are floored at _FLOOR of the largest."""
    lam, vec = np.linalg.eigh(c)
    lam = np.maximum(lam, _FLOOR * lam[-1])
    return (vec / lam) @ vec.T


def _bfgs(nll, x, f, g, maxiter, curvature=None, refresh=False):
    """BFGS or Fisher scoring from a feasible x with value f and score g, halving steps that fail.

    The inverse Hessian H is the floored inverse of ``curvature(x)`` at the
    start, and with ``refresh`` at every accepted iterate: a Fisher scoring
    step.  Otherwise H takes the rank-two BFGS update whenever s'y > 0.
    Without ``curvature`` H starts as the identity over max(1, max-abs
    score), so the first step moves no parameter by more than 1, and is
    rescaled by s'y / y'y after the first step.  A trial point that scores
    +inf or fails the Armijo test halves the step.  The start's evaluation
    is counted in ``nfev``.

    A predicted decrease -g'Hg of at most _FTOL max(|f|, 1) means x is at
    the optimum to the value's rounding, where the Armijo test would fail on
    noise and halve the step to its floor; the run stops there as converged
    (:data:`DECREASE`) without a line search.  A step halved to its floor
    means that no point along a descent direction scores lower than x; it
    counts as converged unless the last trial point scored +inf.
    """
    scaled = curvature is None
    if scaled:
        h = np.eye(x.size) / max(1.0, float(np.max(np.abs(g), initial=0.0)))
    nfev, message, small = 1, MAXITER, 0
    for nit in range(maxiter + 1):
        if float(np.max(np.abs(g), initial=0.0)) <= _GTOL:
            message = SCORE
            break
        if nit == maxiter:
            break
        if not scaled and (nit == 0 or refresh):
            h = _floored_inverse(curvature(x))
        p = -h @ g
        slope = float(g @ p)
        if -slope <= _FTOL * max(abs(f), 1.0):
            message = DECREASE
            break
        t = 1.0
        for _ in range(_HALVINGS + 1):
            x_new = x + t * p
            f_new, g_new = nll(x_new)
            nfev += 1
            if np.isfinite(f_new) and f_new <= f + _ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            message = FLOOR if np.isfinite(f_new) else WALL
            break
        g_new = np.asarray(g_new, dtype=float)
        if not refresh:
            s, y = t * p, g_new - g
            sy = float(s @ y)
            if sy > 0.0:
                if nit == 0 and scaled:
                    h = np.eye(x.size) * (sy / float(y @ y))
                hy = h @ y
                h += (sy + float(y @ hy)) / sy ** 2 * np.outer(s, s) - (np.outer(hy, s) + np.outer(s, hy)) / sy
        decrease = f - f_new
        x, f, g = x_new, float(f_new), g_new
        small = small + 1 if decrease <= _FTOL * max(abs(f), 1.0) else 0
        if small == 2:
            message = DECREASE
            nit += 1
            break
    return SimpleNamespace(x=x, fun=f, success=message in CONVERGED,
                           message=message, nfev=nfev, nit=nit)
