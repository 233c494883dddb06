"""The one multi-start optimiser driver of a fit: margins and stages 2-4.

An objective scores a point as +inf where it is infeasible.  A start that
scores non-finite is skipped: a run from it would only compare +inf values.
"""

import numpy as np
from scipy import optimize

# Nelder-Mead stops on these simplex tolerances.  L-BFGS-B stops on a
# relative decrease below ftol or a projected score below scipy's gtol; its
# default ftol (2.2e-9) left skew-t margins up to 1e-4 nats short of the
# Nelder-Mead optimum, and 1e-12 ends runs at the optimum in a failed line search.
_NELDER_MEAD = {"xatol": 1e-7, "fatol": 1e-9}
_LBFGSB = {"ftol": 1e-10}


def minimize(nll, starts, maxiter, jac=False, bounds=None):
    """Minimise ``nll`` from every start that scores finite; the first lowest result wins.

    With ``jac=True``, ``nll`` returns (value, score) and each run is L-BFGS-B,
    inside ``bounds`` when given; otherwise each run is Nelder-Mead on values
    alone.  When every start is infeasible the result is +inf at the first
    start, without a run.
    """
    starts = [np.asarray(x0, dtype=float) for x0 in starts]
    value = (lambda x: nll(x)[0]) if jac else nll
    if jac:
        kw = {"method": "L-BFGS-B", "jac": True, "bounds": bounds,
              "options": dict(_LBFGSB, maxiter=maxiter)}
    else:
        kw = {"method": "Nelder-Mead", "options": dict(_NELDER_MEAD, maxiter=maxiter)}
    runs = [optimize.minimize(nll, x0, **kw) for x0 in starts if np.isfinite(value(x0))]
    if not runs:
        return optimize.OptimizeResult(x=starts[0], fun=np.inf, success=False, nfev=0, nit=0)
    return min(runs, key=lambda res: res.fun)
