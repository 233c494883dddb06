"""The one optimiser of a fit, :func:`minimize`: margins and stages 2-4.

The skew-t margins (exact Hessian) and stage 2 (expected Fisher
information) refresh their curvature at every iterate: Newton and Fisher
scoring steps.  Stages 3 and 4 start next to their optimum, take it once
and update its inverse by BFGS.  The margins' box is kept as in projected
Newton (Bertsekas 1982, SIAM J. Control Optim. 20, 221-246).
"""

from types import SimpleNamespace

import numpy as np

# BFGS stops when the max-abs score is at most _GTOL, or when two steps in a
# row decrease the value by at most _FTOL relative to max(|value|, 1) (one
# such step can be a stall in a curved valley, not the optimum): 1e-13 of
# a stage value of a few thousand nats is a few 1e-10 nats, above the
# rounding noise of the likelihood kernel.  A step is halved at most
# _HALVINGS times; the Armijo test asks for _ARMIJO of the linear decrease.
# Curvature eigenvalues enter by absolute value, so a Newton step on an
# indefinite Hessian still descends, and those below _FLOOR of the largest
# are raised to it, so the inverse stays finite along a direction that the
# data barely inform.  A higher floor shortens the steps along such a
# direction: on a skew-t sample whose fit runs to the log b = 12 edge of
# its box, the Hessian's ridge eigenvalue is 4e-11 of the largest, and at a
# floor of 1e-8 the runs stopped at log b = 11.5, 3e-5 nats short.
_GTOL = 1e-5
_FTOL = 1e-13
_HALVINGS = 40
_ARMIJO = 1e-4
_FLOOR = 1e-12

SCORE, DECREASE, FLOOR, WALL, MAXITER = (
    "converged: max-abs score at most %g" % _GTOL,
    "converged: relative decrease at most %g" % _FTOL,
    "converged: step halved to its floor without a decrease",
    "stopped: step halved to its floor at +inf",
    "stopped: maxiter reached",
)
CONVERGED = (SCORE, DECREASE, FLOOR)


def minimize(nll, starts, maxiter, curvature, box=None, refresh=False):
    """Minimise ``nll`` from every start that scores finite; the first lowest result wins.

    ``nll(x)`` returns (value, score); a start that scores non-finite is
    skipped, since a run from it would only compare +inf values.
    ``curvature(x)`` returns a symmetric Hessian or an approximation of it,
    asked for only at the point ``nll`` evaluated last, which scored finite,
    so that it may reuse that evaluation; ``refresh`` takes it at every
    accepted iterate, not once per run.  ``box``, a pair of arrays (low,
    high), infinite for no limit, holds the starts and every iterate.  Each
    run makes at most ``maxiter`` iterations.

    The result is the winning run's ``x``, ``fun``, ``success`` and
    ``message``, with ``nfev``, ``nit`` and ``ninf`` (the evaluations that
    scored +inf) summed over all runs.  A run converged (``success``) when
    it stopped on the score, on the relative decrease or on a step halved to
    its floor at a finite value (:data:`CONVERGED`), not at ``maxiter`` or
    on a step halved to its floor at +inf.  When every start is infeasible
    the result is +inf at the first start, with no run and no counts.
    """
    starts = [np.asarray(x0, dtype=float) for x0 in starts]
    lo, hi = (-np.inf, np.inf) if box is None else np.asarray(box, dtype=float)
    runs = []
    for x0 in starts:
        f0, g0 = nll(x0)
        if np.isfinite(f0):
            runs.append(_bfgs(nll, x0, f0, np.asarray(g0, dtype=float), maxiter, curvature,
                              refresh, lo, hi))
    if not runs:
        return SimpleNamespace(x=starts[0], fun=np.inf, success=False,
                               message="no start scores finite", nfev=0, nit=0, ninf=0)
    best = min(runs, key=lambda res: res.fun)
    for count in ("nfev", "nit", "ninf"):
        setattr(best, count, sum(getattr(r, count) for r in runs))
    return best


def _floored_inverse(c, free):
    """Inverse of the free block of a symmetric curvature, |eigenvalues| floored; zero elsewhere."""
    if not free.all():
        h = np.zeros(c.shape)
        h[np.ix_(free, free)] = _floored_inverse(c[np.ix_(free, free)], free[free])
        return h
    lam, vec = np.linalg.eigh(c)
    lam = np.abs(lam)
    return (vec / np.maximum(lam, _FLOOR * lam.max())) @ vec.T


def _bfgs(nll, x, f, g, maxiter, curvature, refresh, lo, hi):
    """BFGS or Newton from a feasible x in the box [lo, hi] with value f and score g.

    A coordinate on a bound whose score points out of the box is held: the
    score stop ignores it, and its row and column leave the curvature before
    the floored inverse H is taken, at the start, whenever the held set
    changes and, with ``refresh``, at every accepted iterate; otherwise H
    takes the rank-two BFGS update whenever s'y > 0.  A step leaves no bound
    that its coordinate is on, and is cut at the first bound it would cross,
    which that coordinate then takes exactly.  A trial point that scores
    +inf or fails the Armijo test halves the step; the feasible sets are
    open, so halving from a feasible point ends at a feasible one.  ``nfev``
    counts the start's evaluation, ``ninf`` the trial points at +inf.

    A predicted decrease -g'Hg of at most _FTOL max(|f|, 1) means x is at
    the optimum to the value's rounding, where the Armijo test would fail on
    noise and halve the step to its floor; the run stops there as converged
    (:data:`DECREASE`) without a line search.  A step halved to its floor
    means that no point along a descent direction scores lower than x; it
    counts as converged unless the last trial point scored +inf.
    """
    nfev, ninf, message, small, held_h = 1, 0, MAXITER, 0, None
    for nit in range(maxiter + 1):
        held = (x <= lo) & (g > 0.0) | (x >= hi) & (g < 0.0)
        free_g = np.where(held, 0.0, g)
        if float(np.max(np.abs(free_g), initial=0.0)) <= _GTOL:
            message = SCORE
            break
        if nit == maxiter:
            break
        if refresh or not np.array_equal(held, held_h):
            h, held_h = _floored_inverse(curvature(x), ~held), held
        p = -h @ free_g
        p[(x <= lo) & (p < 0.0) | (x >= hi) & (p > 0.0)] = 0.0
        slope = float(g @ p)
        if -slope <= _FTOL * max(abs(f), 1.0):
            message = DECREASE
            break
        share = np.abs(p) / np.maximum(np.where(p > 0.0, hi - x, x - lo), np.finfo(float).tiny)
        j = int(np.argmax(share))
        if share[j] > 1.0:
            p, slope = p / share[j], slope / share[j]
        t = 1.0
        for _ in range(_HALVINGS + 1):
            x_new = np.clip(x + t * p, lo, hi)
            if t == 1.0 and share[j] > 1.0:
                x_new[j] = hi[j] if p[j] > 0.0 else lo[j]
            f_new, g_new = nll(x_new)
            nfev += 1
            ninf += not np.isfinite(f_new)
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
                           message=message, nfev=nfev, nit=nit, ninf=ninf)
