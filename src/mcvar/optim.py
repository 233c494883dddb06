"""The one optimiser of a fit, :func:`minimize`: margins and stages 2-4.

Every caller makes one run from one start.  The skew-t margins (exact
Hessian) and stage 2 (expected Fisher information) refresh their curvature
at every iterate: Newton and Fisher scoring steps.  Stages 3 and 4 start
next to their optimum, take it once and update its inverse by BFGS; when
the unit step of an updated inverse fails, the run restarts from the
curvature at its iterate, as a quasi-Newton method resets a model that has
failed (Nocedal & Wright 2006, Numerical Optimization, ch. 6).  The
margins' box is kept as in projected Newton (Bertsekas 1982, SIAM J.
Control Optim. 20, 221-246).
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


def _floored_inverse(c, free):
    """Inverse of the free block of a symmetric curvature, |eigenvalues| floored; zero elsewhere."""
    if not free.all():
        h = np.zeros(c.shape)
        h[np.ix_(free, free)] = _floored_inverse(c[np.ix_(free, free)], free[free])
        return h
    lam, vec = np.linalg.eigh(c)
    lam = np.abs(lam)
    return (vec / np.maximum(lam, _FLOOR * lam.max())) @ vec.T


def minimize(nll, x0, maxiter, curvature, box=None, refresh=False):
    """Minimise ``nll`` from ``x0`` by BFGS or Newton steps inside an optional box.

    ``nll(x)`` returns (value, score).  ``curvature(x)`` returns a symmetric
    Hessian or an approximation of it, asked for only at the point ``nll``
    evaluated last, which scored finite, so that it may reuse that
    evaluation.  ``box``, a pair of arrays (low, high), infinite for no
    limit, holds ``x0`` and every iterate.  The run makes at most ``maxiter``
    iterations.  An ``x0`` that scores non-finite gives +inf at ``x0`` with
    no run and zero counts, since a run from it would only compare +inf
    values.

    A coordinate on a bound whose score points out of the box is held: the
    score stop ignores it, and its row and column leave the curvature before
    the floored inverse H is taken, at the start, whenever the held set
    changes and, with ``refresh``, at every accepted iterate; otherwise H
    takes the rank-two BFGS update whenever s'y > 0.  A step leaves no bound
    that its coordinate is on, and is cut at the first bound it would cross,
    which that coordinate then takes exactly.  A run whose bounds are all
    infinite skips this bookkeeping.  A trial point that scores +inf or
    fails the Armijo test halves the step; the feasible sets are open, so
    halving from a feasible point ends at a feasible one.

    The one exception is the unit step from an H that BFGS has updated: if
    it fails, the iteration restarts.  x is evaluated again, since the
    curvature is taken only at the point evaluated last, H becomes the
    floored inverse of the curvature there, and the run steps again from x,
    halving if that step fails too.  The secant averages the curvature over
    the step it spans, so after a first step that lands next to an optimum
    near the positive definite boundary, where the curvature rises steeply,
    the next unit step overshoots: on the paper's bivariate k = 2 example
    (seed-11 benchmark replicates 0-9) stage 3 took 12-14 evaluations
    halving back, and takes 5-6 with the restart.  A run with ``refresh``
    never restarts.

    A predicted decrease -g'Hg of at most _FTOL max(|f|, 1) means x is at
    the optimum to the value's rounding, where the Armijo test would fail on
    noise and halve the step to its floor; the run stops there as converged
    (:data:`DECREASE`) without a line search.  A step halved to its floor
    means that no point along a descent direction scores lower than x; it
    counts as converged unless the last trial point scored +inf.

    The result holds ``x``, ``fun``, ``success``, ``message`` (the stop) and
    the run record: ``nfev`` counts the start's evaluation and each
    restart's, ``nit`` the iterations, ``ninf`` the trial points at +inf and
    ``nrestart`` the restarts.  A run converged (``success``) when it
    stopped on the score, on the relative decrease or on a step halved to
    its floor at a finite value (:data:`CONVERGED`).
    """
    x = np.asarray(x0, dtype=float)
    f, g = nll(x)
    if not np.isfinite(f):
        return SimpleNamespace(x=x, fun=np.inf, success=False,
                               message="the start scores non-finite", nfev=0, nit=0, ninf=0,
                               nrestart=0)
    f, g = float(f), np.asarray(g, dtype=float)
    lo, hi = (-np.inf, np.inf) if box is None else np.asarray(box, dtype=float)
    bounded = bool(np.isfinite(lo).any() or np.isfinite(hi).any())
    held = np.zeros(x.shape, dtype=bool)
    nfev, ninf, nrestart, nit, message, small, h, updated = 1, 0, 0, 0, MAXITER, 0, None, False
    while True:
        free_g = g
        if bounded:
            held_h, held = held, (x <= lo) & (g > 0.0) | (x >= hi) & (g < 0.0)
            free_g = np.where(held, 0.0, g)
        if float(np.max(np.abs(free_g), initial=0.0)) <= _GTOL:
            message = SCORE
            break
        if nit == maxiter:
            break
        if h is None or refresh or bounded and not np.array_equal(held, held_h):
            h, updated = _floored_inverse(curvature(x), ~held), False
        p = -h @ free_g
        cut = False
        if bounded:
            p[(x <= lo) & (p < 0.0) | (x >= hi) & (p > 0.0)] = 0.0
            share = np.abs(p) / np.maximum(np.where(p > 0.0, hi - x, x - lo),
                                           np.finfo(float).tiny)
            j = int(np.argmax(share))
            cut = share[j] > 1.0
        slope = float(g @ p)
        if -slope <= _FTOL * max(abs(f), 1.0):
            message = DECREASE
            break
        if cut:
            p, slope = p / share[j], slope / share[j]
        t = 1.0
        for _ in range(_HALVINGS + 1):
            x_new = x + t * p
            if bounded:
                x_new = np.clip(x_new, lo, hi)
                if t == 1.0 and cut:
                    x_new[j] = hi[j] if p[j] > 0.0 else lo[j]
            f_new, g_new = nll(x_new)
            nfev += 1
            ninf += not np.isfinite(f_new)
            ok = np.isfinite(f_new) and f_new <= f + _ARMIJO * t * slope
            if ok or updated:
                break
            t *= 0.5
        else:
            message = FLOOR if np.isfinite(f_new) else WALL
            break
        if not ok:
            # the unit step of a BFGS-updated inverse failed: restart this
            # iteration from the curvature at x, which must be evaluated last
            nll(x)
            nfev, nrestart, h = nfev + 1, nrestart + 1, None
            continue
        g_new = np.asarray(g_new, dtype=float)
        if not refresh:
            s, y = t * p, g_new - g
            sy = float(s @ y)
            if sy > 0.0:
                hy = h @ y
                h += (sy + float(y @ hy)) / sy ** 2 * np.outer(s, s) - (np.outer(hy, s) + np.outer(s, hy)) / sy
                updated = True
        decrease = f - f_new
        x, f, g, nit = x_new, float(f_new), g_new, nit + 1
        small = small + 1 if decrease <= _FTOL * max(abs(f), 1.0) else 0
        if small == 2:
            message = DECREASE
            break
    return SimpleNamespace(x=x, fun=f, success=message in CONVERGED, message=message,
                           nfev=nfev, nit=nit, ninf=ninf, nrestart=nrestart)
