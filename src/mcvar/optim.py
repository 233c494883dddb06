"""The one multi-start optimiser driver of a fit: margins and stages 2-4.

Every objective returns (value, score) and scores a point as +inf where it
is infeasible.  A start that scores non-finite is skipped: a run from it
would only compare +inf values.  Where every point of a box is feasible
(skew-t margins, tanh-mapped scalar stage 2) each run is scipy's L-BFGS-B
inside the box.  Elsewhere (raw-entry stage 2, stages 3 and 4) each run is
:func:`_bfgs`, which halves a step that lands on +inf.  The feasible sets
are open, so halving from a feasible point ends at a feasible one.  Stages 3
and 4 start next to their optimum and pass the inverse of the expected
information there as the starting inverse Hessian.
"""

import numpy as np
from scipy import optimize

# L-BFGS-B stops on a relative decrease below ftol or a projected score below
# scipy's gtol; its default ftol (2.2e-9) left skew-t margins up to 1e-4 nats
# short of the Nelder-Mead optimum, and 1e-12 ends runs at the optimum in a
# failed line search.
_LBFGSB = {"ftol": 1e-10}
# BFGS stops when the max-abs score is at most _GTOL, or when two steps in a
# row decrease the value by at most _FTOL relative to max(|value|, 1) (one
# such step can be a stall in a curved valley, not the optimum): 1e-13 of
# a stage value of a few thousand nats is a few 1e-10 nats, above the
# rounding noise of the likelihood kernel.  A step is halved or doubled at
# most _HALVINGS times; the Armijo test asks for _ARMIJO of the linear
# decrease, and a full step is doubled while the value still falls along it
# at more than _CURVATURE of the starting slope.
_GTOL = 1e-5
_FTOL = 1e-13
_HALVINGS = 40
_ARMIJO = 1e-4
_CURVATURE = 0.1

SCORE, DECREASE, FLOOR, NO_DECREASE, WALL, MAXITER = (
    "converged: max-abs score at most %g" % _GTOL,
    "converged: relative decrease at most %g" % _FTOL,
    "converged: step halved to its floor without a decrease",
    "converged: L-BFGS-B line search found no decrease (ABNORMAL)",
    "stopped: step halved to its floor at +inf",
    "stopped: maxiter reached",
)
CONVERGED = (SCORE, DECREASE, FLOOR, NO_DECREASE)


def minimize(nll, starts, maxiter, box=None, h0=None):
    """Minimise ``nll`` from every start that scores finite; the first lowest result wins.

    ``nll(x)`` returns (value, score).  With ``box``, a sequence of
    (low, high) pairs (None for no limit) inside which every point scores
    finite, each run is L-BFGS-B inside it; otherwise each run is
    :func:`_bfgs`, from the inverse Hessian ``h0(x0)`` at its start x0 when
    ``h0`` is given.  ``h0`` is called only at a start that scores finite.
    At most ``maxiter`` iterations are made per run.

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
            h = None if h0 is None else h0(x0)
            runs.append(_bfgs(counted, x0, f0, np.asarray(g0, dtype=float), maxiter, h))
            continue
        res = optimize.minimize(counted, x0, method="L-BFGS-B", jac=True, bounds=box,
                                options=dict(_LBFGSB, maxiter=maxiter))
        if res.message.startswith("ABNORMAL") and np.isfinite(res.fun):
            res.success, res.message = True, NO_DECREASE
        runs.append(res)
    if not runs:
        return optimize.OptimizeResult(x=starts[0], fun=np.inf, success=False,
                                       message="no start scores finite", nfev=0, nit=0, ninf=0)
    best = min(runs, key=lambda res: res.fun)
    return optimize.OptimizeResult(
        x=best.x, fun=float(best.fun), success=bool(best.success), message=str(best.message),
        nfev=sum(r.nfev for r in runs), nit=sum(r.nit for r in runs), ninf=ninf)


def _bfgs(nll, x, f, g, maxiter, h=None):
    """BFGS from a feasible x with value f and score g, halving steps that fail.

    The inverse Hessian H starts as ``h`` when it is given.  Otherwise it
    starts as the identity over max(1, max-abs score), so the first step
    moves no parameter by more than 1, and is rescaled by s'y / y'y after
    the first step.  H takes the rank-two update whenever s'y > 0.  A trial
    point that scores +inf or fails the Armijo test halves the step.  A full
    step that passes, along which the value still falls steeply, is doubled
    while the doubled step passes: where the first scaling left H far too
    small along a flat direction, as next to a nearly singular R, the run
    would otherwise creep along it with tiny decreases and stop there.  The
    start's evaluation is counted in ``nfev``.

    A predicted decrease -g'Hg of at most _FTOL max(|f|, 1) means x is at
    the optimum to the value's rounding, where the Armijo test would fail on
    noise and halve the step to its floor; the run stops there as converged
    (:data:`DECREASE`) without a line search.  A step halved to its floor
    means that no point along a descent direction scores lower than x; it
    counts as converged unless the last trial point scored +inf.  Two small
    decreases while the max-abs score still exceeds _GTOL can be a stale H
    along a flat direction, not the optimum.  The first time, H restarts as
    the scaled identity s's / s'y, the last step's own inverse curvature
    along s, and two more small decreases in a row stop the run.  s'y / y'y
    would take the largest curvature that y sees, which next to a nearly
    singular R is stiff enough to leave the flat direction unexplored.  In
    one dimension nothing restarts: H there is already a secant along the
    only direction.
    """
    scaled = h is None
    if scaled:
        h = np.eye(x.size) / max(1.0, float(np.max(np.abs(g), initial=0.0)))
    else:
        h = np.array(h, dtype=float)  # updated in place below
    nfev, message, small, restarted = 1, MAXITER, 0, False
    for nit in range(maxiter + 1):
        if float(np.max(np.abs(g), initial=0.0)) <= _GTOL:
            message = SCORE
            break
        if nit == maxiter:
            break
        p = -h @ g
        slope = float(g @ p)
        if -slope <= _FTOL * max(abs(f), 1.0):
            message = DECREASE
            break
        t = 1.0
        for _ in range(_HALVINGS + 1):
            f_new, g_new = nll(x + t * p)
            nfev += 1
            if np.isfinite(f_new) and f_new <= f + _ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            message = FLOOR if np.isfinite(f_new) else WALL
            break
        while 1.0 <= t < 2.0 ** _HALVINGS and float(np.asarray(g_new) @ p) < _CURVATURE * slope:
            f_far, g_far = nll(x + 2.0 * t * p)
            nfev += 1
            if not (np.isfinite(f_far) and f_far <= f + _ARMIJO * 2.0 * t * slope):
                break
            t, f_new, g_new = 2.0 * t, f_far, g_far
        s, y = t * p, np.asarray(g_new, dtype=float) - g
        sy = float(s @ y)
        if sy > 0.0:
            if nit == 0 and scaled:
                h = np.eye(x.size) * (sy / float(y @ y))
            hy = h @ y
            h += (sy + float(y @ hy)) / sy ** 2 * np.outer(s, s) - (np.outer(hy, s) + np.outer(s, hy)) / sy
        decrease = f - f_new
        x, f, g = x + s, float(f_new), np.asarray(g_new, dtype=float)
        small = small + 1 if decrease <= _FTOL * max(abs(f), 1.0) else 0
        if small == 2 and x.size > 1 and not restarted and float(np.max(np.abs(g))) > _GTOL:
            restarted = True
            scale = float(s @ s) / sy if sy > 0.0 else 1.0 / max(1.0, float(np.max(np.abs(g))))
            h, small = np.eye(x.size) * scale, 0
        if small == 2:
            message = DECREASE
            nit += 1
            break
    return optimize.OptimizeResult(x=x, fun=f, success=message in CONVERGED,
                                   message=message, nfev=nfev, nit=nit)
