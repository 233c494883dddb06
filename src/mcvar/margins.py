"""Univariate margins: Gaussian and a skew-t family with separate tail powers.

The skew-t (Jones and Faddy 2003) log density with location 0 and scale 1 is

    log f(s) = (a - b) asinh(u) - (a+b+1)/2 log1p(u^2) - log(2^(a+b-1) B(a, b) sqrt(a+b))

with u = s / sqrt(a + b), finite in both tails; a = b recovers a Student-t
with 2a degrees of freedom up to scale, unequal parameters tilt the tails,
and both parameters large together approaches a Gaussian.  Distribution
function and quantile reduce to the regularized incomplete beta function via
the monotone map s -> x = (1 + u / sqrt(1 + u^2))/2, computed through its
logit w = log x - log(1 - x) = 2 asinh(u), so s = sqrt(a+b) sinh(w/2) and
neither tail rounds to x = 0 or 1.
"""

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betainc, betaincinv, betaln, digamma, expit, ndtr, ndtri, zeta

from ._document import _key, _list, _name
from .optim import minimize

# PIT values are clamped into [PIT_CLAMP, 1 - PIT_CLAMP] before the normal
# quantile; exact 0/1 would map to infinities.
PIT_CLAMP = 1e-12

_LOG_2PI = float(np.log(2.0 * np.pi))

# from_normal's skew-t table: a cubic Hermite interpolant of w(z), the logit of
# the beta quantile at Phi(z), on a fixed grid over the clamped score range.
# w is nearly quadratic in the tails, and an absolute error in w is a relative
# error in s, so one grid serves both tails.
_Z_MAX = float(-ndtri(PIT_CLAMP))
_NODES = 2048
_STEP = 2.0 * _Z_MAX / (_NODES - 1)
_TABLE_RTOL = 1e-10  # in |s|/max(1, |s|), checked at every interval midpoint

# Parameter names of each margin family, in the order of ``MarginSpec.params``.
FAMILY_PARAMS = {"gaussian": ("loc", "scale"), "skewt": ("loc", "scale", "a", "b")}

__all__ = [
    "FAMILY_PARAMS",
    "MarginSpec",
    "MarginFit",
    "pdf",
    "logpdf",
    "cdf",
    "quantile",
    "pit_to_normal",
    "from_normal",
    "fit_margin",
]


@dataclass(frozen=True)
class MarginSpec:
    """One margin: family name plus its parameter tuple.

    Families: ``gaussian`` with (loc, scale), ``skewt`` with (loc, scale, a, b).
    """

    family: str
    params: tuple

    def __post_init__(self):
        if not isinstance(self.family, str):
            raise ValueError("margin 'family' must be a string, got %r" % (self.family,))
        try:
            params = tuple(float(p) for p in self.params)
        except (TypeError, ValueError):  # not iterable, nested, or not numbers
            raise ValueError("margin 'params' must be a flat list of numbers, got %r"
                             % (self.params,)) from None
        object.__setattr__(self, "params", params)
        names = FAMILY_PARAMS.get(self.family)
        if names is None:
            raise ValueError("unknown margin family %r" % self.family)
        if len(params) != len(names):
            raise ValueError("%s margin takes (%s)" % (self.family, ", ".join(names)))
        if not all(map(math.isfinite, params)):
            raise ValueError("margin parameters must be finite, got %s" % (params,))
        if params[1] <= 0:
            raise ValueError("scale must be positive")
        if any(p <= 0 for p in params[2:]):
            raise ValueError("tail parameters a, b must be positive")

    def to_dict(self):
        return {"family": self.family, "params": list(self.params)}

    @classmethod
    def from_dict(cls, d):
        """Inverse of :meth:`to_dict`: an object with ``family`` and a list ``params``;
        anything else raises ValueError naming the field."""
        return _margin(d)


def _margin(entry, i=None):
    """The margin of a ``margins`` entry (entry i where given), as :meth:`MarginSpec.from_dict`."""
    family = _key(entry, "family", "margins", i)
    params = _list(_key(entry, "params", "margins", i), "margins params", i=i)
    try:
        return MarginSpec(family, params)
    except ValueError as exc:
        raise ValueError("%s: %s" % (_name("margins", i), exc)) from None


def _skewt_logconst(a, b):
    # log of the standardized density's normalization constant
    return (a + b - 1.0) * np.log(2.0) + betaln(a, b) + 0.5 * np.log(a + b)


def _skewt_logpdf(x, loc, scale, a, b):
    """Elementwise skew-t log density, with the u, asinh(u) and log1p(u^2) it is built from."""
    u = (x - loc) / (scale * math.sqrt(a + b))
    asinh_u, log1p_u2 = np.arcsinh(u), np.log1p(u * u)
    lp = (a - b) * asinh_u - 0.5 * (a + b + 1.0) * log1p_u2 - _skewt_logconst(a, b) - math.log(scale)
    return lp, u, asinh_u, log1p_u2


def logpdf(x, margin):
    """Elementwise log density."""
    x = np.asarray(x, dtype=float)
    if margin.family == "gaussian":
        loc, scale = margin.params
        s = (x - loc) / scale
        return -0.5 * (_LOG_2PI + s * s) - np.log(scale)
    return _skewt_logpdf(x, *margin.params)[0]


def pdf(x, margin):
    return np.exp(logpdf(x, margin))


def _skewt_logit(x, margin):
    """w = 2 asinh(u) = log x - log(1 - x) of the beta argument x of each value."""
    loc, scale, a, b = margin.params
    return 2.0 * np.arcsinh((x - loc) / (scale * math.sqrt(a + b)))


def _skewt_s(w, a, b):
    """The standardized skew-t value at logit w: sqrt(a+b) sinh(w/2) = sqrt(a+b) u."""
    return math.sqrt(a + b) * np.sinh(0.5 * w)


def _log_dwdp(w, a, b):
    """log dw/dp = -log(f(x) x (1-x)) at x = expit(w), f the beta(a, b) density."""
    return betaln(a, b) + a * np.logaddexp(0.0, -w) + b * np.logaddexp(0.0, w)


def _lower_side(p, q, w, a, b):
    """Where the beta(a, b) pair (x, p) is more accurate than (1 - x, q).

    Through ``betainc(a, b, x)`` or ``betaincinv(a, b, p)`` the error in w is
    about eps (p dw/dp + 1/(1-x)); through the mirrored ``(b, a)`` call with
    1 - x and q it is eps (q dw/dp + 1/x).  The lower side wins where
    (p - q) dw/dp <= 1/x - 1/(1-x) = -2 sinh(w); w and p need only be
    estimates.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return (p - q) * np.exp(_log_dwdp(w, a, b)) <= -2.0 * np.sinh(w)


def _logit_quantile(p, q, a, b):
    """Logit w of the beta(a, b) quantile x with P(X <= x) = p and P(X > x) = q.

    Both ``betaincinv(a, b, p)`` (x) and ``betaincinv(b, a, q)`` (1 - x) are
    computed; each value takes the more accurate (:func:`_lower_side`), judged
    at the estimate from whichever of x and 1 - x is below 1/2.
    """
    with np.errstate(divide="ignore"):
        x = betaincinv(a, b, p)
        y = betaincinv(b, a, q)
        w_lower = np.log(x) - np.log1p(-x)
        w_upper = np.log1p(-y) - np.log(y)
    w = np.where(x <= 0.5, w_lower, w_upper)
    return np.where(_lower_side(p, q, w, a, b), w_lower, w_upper)


def _normal_logit(z, a, b):
    """Exact w(z) = logit of the beta(a, b) quantile at Phi(z), z already clamped.

    A positive score goes through the mirror image w_{a,b}(z) = -w_{b,a}(-z),
    so every probability passed on is Phi(-|z|) <= 1/2 and none is rounded
    near 1.  This is ``quantile(ndtr(z))`` below 0 and minus the mirrored
    margin's ``quantile(ndtr(-z))`` above it.
    """
    up = z > 0
    p = ndtr(-np.abs(z))
    w = _logit_quantile(p, 1.0 - p, np.where(up, b, a), np.where(up, a, b))
    return np.where(up, -w, w)


def _hermite(coef, z):
    """Evaluate the table's per-interval cubics in Horner form at clamped z."""
    pos = (z + _Z_MAX) / _STEP
    i = np.fmin(pos, _NODES - 2).astype(np.intp)  # fmin maps nan to the last interval
    pos -= i
    w = coef[0].take(i)
    for row in coef[1:]:
        w *= pos
        w += row.take(i)
    return w


@functools.lru_cache(maxsize=64)
def _logit_table(a, b):
    """Cubic Hermite coefficients of w(z) on the fixed grid, or None.

    Node values and slopes are exact: dw/dz = phi(z) dw/dp.  The table is
    kept only if every node is finite and it meets the exact w at every
    interval midpoint to _TABLE_RTOL in s; otherwise (a, b) uses the exact
    path.  Rows are the Horner coefficients from t^3 down, t in [0, 1).
    """
    half = -_Z_MAX + 0.5 * _STEP * np.arange(2 * _NODES - 1)  # nodes and midpoints
    w_half = _normal_logit(half, a, b)
    z, w = half[::2], w_half[::2]
    with np.errstate(over="ignore"):
        slope = _STEP * np.exp(_log_dwdp(w, a, b) - 0.5 * (z * z + _LOG_2PI))
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(slope))):
        return None
    dw = np.diff(w)
    m0, m1 = slope[:-1], slope[1:]
    coef = np.stack([m0 + m1 - 2.0 * dw, 3.0 * dw - 2.0 * m0 - m1, m0, w[:-1]])
    exact = _skewt_s(w_half[1::2], a, b)
    err = np.abs(_skewt_s(_hermite(coef, half[1::2]), a, b) - exact)
    if not np.all(err <= _TABLE_RTOL * np.maximum(1.0, np.abs(exact))):
        return None
    coef.flags.writeable = False
    return coef


def cdf(x, margin):
    x = np.asarray(x, dtype=float)
    if margin.family == "gaussian":
        loc, scale = margin.params
        return ndtr((x - loc) / scale)
    _, _, a, b = margin.params
    return betainc(a, b, expit(_skewt_logit(x, margin)))


def quantile(u, margin):
    """Inverse distribution function; u outside (0, 1) raises.

    The skew-t quantile is exact in both tails: the beta quantile comes from
    whichever of x and 1 - x is computed more accurately (see
    ``_logit_quantile``) and enters s through its logit.
    """
    u = np.asarray(u, dtype=float)
    if np.any((u <= 0.0) | (u >= 1.0)):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    if margin.family == "gaussian":
        loc, scale = margin.params
        return loc + scale * ndtri(u)
    loc, scale, a, b = margin.params
    return loc + scale * _skewt_s(_logit_quantile(u, 1.0 - u, a, b), a, b)


def pit_to_normal(x, margin):
    """Map observations to standard normal scores through the margin.

    Gaussian margins use the exact affine transform so no probability round
    trip degrades the tails.  Otherwise the probability integral transform is
    clamped away from 0 and 1 and a warning reports how many points hit the
    clamp.
    """
    x = np.asarray(x, dtype=float)
    if margin.family == "gaussian":
        loc, scale = margin.params
        return (x - loc) / scale
    _, _, a, b = margin.params
    w = np.asarray(_skewt_logit(x, margin))
    # P(X <= x) or, where the mirrored side is more accurate, P(X > x) from
    # 1 - x, so neither tail is read off a probability rounded near 1.  Above
    # both x = 1/2 and the median the upper side wins outright, and the
    # placeholder p = 1 says so.
    p = np.ones(w.shape)
    near = w <= max(0.0, float(_logit_quantile(0.5, 0.5, a, b)))
    p[near] = betainc(a, b, expit(w[near]))
    up = ~_lower_side(p, 1.0 - p, w, a, b)
    p[up] = betainc(b, a, expit(-w[up]))
    clamped = int(np.sum(p < PIT_CLAMP))
    if clamped:
        warnings.warn(
            "%d observation(s) clamped at the PIT boundary; tail fit is suspect" % clamped,
            RuntimeWarning,
            stacklevel=2,
        )
    z = ndtri(np.maximum(p, PIT_CLAMP))
    return np.where(up, -z, z)


def from_normal(z, margin):
    """Inverse of :func:`pit_to_normal`: normal scores to the data scale.

    Scores are clamped to |z| <= -ndtri(PIT_CLAMP).  A skew-t margin reads
    each score off one cached table per (a, b): a cubic Hermite interpolant
    of the logit w(z) on 2,048 fixed nodes with exact values and slopes,
    within 1e-10 max(1, |s|) of the exact quantile in standardized units.
    An (a, b) whose table misses that bound at a check point uses the exact
    quantile path instead.
    """
    z = np.asarray(z, dtype=float)
    if margin.family == "gaussian":
        loc, scale = margin.params
        return loc + scale * z
    loc, scale, a, b = margin.params
    z = np.clip(z, -_Z_MAX, _Z_MAX)
    coef = _logit_table(a, b)
    w = _normal_logit(z, a, b) if coef is None else _hermite(coef, z)
    return loc + scale * _skewt_s(w, a, b)


@dataclass(frozen=True)
class MarginFit:
    spec: MarginSpec
    loglik: float
    converged: bool  # the run converged, inside the box
    run: object = field(default=None, compare=False)  # the skew-t run's record, or None


_MAXITER = 4000


def _skewt_objective(x):
    """nll(theta) -> (negative skew-t log likelihood of ``x``, score) in (loc,
    log scale, log a, log b), through u = (x - loc) / (scale sqrt(a+b)) as
    README derives; ``nll.curvature(theta)`` is the Hessian, from the arrays
    of the evaluation at theta, which must be the last one (else ValueError).
    """
    last = {}

    def nll(theta):
        loc, lsc, la, lb = (float(v) for v in theta)
        scale, a, b = math.exp(lsc), math.exp(la), math.exp(lb)
        lp, u, asinh_u, log1p_u2 = _skewt_logpdf(x, loc, scale, a, b)
        n, c = x.size, a + b
        # rows r, m, e_{log a} and e_{log b}, with du/dtheta = -(r + m u)
        basis = np.eye(4)
        basis[0, 0], basis[1, 2:] = 1.0 / (scale * math.sqrt(c)), (0.5 * a / c, 0.5 * b / c)
        inv_v = 1.0 / (1.0 + u * u)
        inv_root, u_v = np.sqrt(inv_v), u * inv_v
        dl_du = (a - b) * inv_root - (c + 1.0) * u_v
        s0, s1 = dl_du.sum(), u @ dl_du
        sum_asinh, half_sum_log1p = asinh_u.sum(), 0.5 * log1p_u2.sum()
        dconst = math.log(2.0) - digamma(c) + 0.5 / c
        direct = np.array([0.0, -n, a * (sum_asinh - half_sum_log1p - n * (dconst + digamma(a))),
                           b * (-sum_asinh - half_sum_log1p - n * (dconst + digamma(b)))])

        def hessian(at):
            if not np.array_equal(at, theta):
                raise ValueError("the curvature is taken only at the last point evaluated")
            d2l_du2 = -(a - b) * u_v * inv_root - (c + 1.0) * (2.0 * inv_v - 1.0) * inv_v
            d0, d1, d2 = d2l_du2.sum(), u @ d2l_du2, (u * u) @ d2l_du2
            root, v = np.array([inv_root.sum(), u @ inv_root]), np.array([u_v.sum(), u @ u_v])
            mixed_a, mixed_b = -a * (root - v), b * (root + v)
            tri = zeta(2.0, np.array([a, b, c]))
            tc, g = tri[2] + 0.5 / c ** 2, 0.5 * a * b / c ** 2 * s1
            own_a, own_b = direct[2:] - g - n * np.array([a, b]) ** 2 * (tri[:2] - tc)
            ab = g + n * a * b * tc
            k = np.array([[d0, d1 + s0, mixed_a[0], mixed_b[0]],
                          [d1 + s0, d2 + s1, mixed_a[1], mixed_b[1]],
                          [mixed_a[0], mixed_a[1], own_a, ab],
                          [mixed_b[0], mixed_b[1], ab, own_b]])
            return -(basis.T @ k @ basis)

        last["hessian"] = hessian
        return -float(lp.sum()), s0 * basis[0] + s1 * basis[1] - direct

    nll.curvature = lambda theta: last["hessian"](theta)
    return nll


def fit_margin(x, family):
    """Maximum likelihood fit of one margin family to a sample.

    Gaussian margins are closed form.  The skew-t margin is fitted by
    projected Newton on the closed-form score and Hessian in (loc, log
    scale, log a, log b) from one start, loc at the sample median, scale iqr
    and a = b = 3, inside the box |log scale - log iqr| <= 12,
    -6 <= log a, log b <= 12, where iqr is the interquartile range / 1.349
    (the standard deviation if that is 0); a fit that ends on the box edge,
    or within 1e-9 max(1, |x|) of it, reports ``converged=False``.  A sample
    with non-finite values raises ValueError.
    """
    x = np.asarray(x, dtype=float).ravel()
    bad = int(np.count_nonzero(~np.isfinite(x)))
    if bad:
        raise ValueError("sample has %d non-finite value(s)" % bad)
    if x.size < 3:
        raise ValueError("need at least 3 observations to fit a margin")
    if family == "gaussian":
        loc = float(np.mean(x))
        scale = float(np.std(x))
        if scale == 0.0:
            raise ValueError("degenerate sample: zero variance")
        spec = MarginSpec("gaussian", (loc, scale))
        ll = float(np.sum(logpdf(x, spec)))
        return MarginFit(spec=spec, loglik=ll, converged=True)
    if family != "skewt":
        raise ValueError("unknown margin family %r" % family)

    # a robust centre and spread: a few far tail values cannot drag the start
    # and the log-scale box away from the bulk of the sample
    q1, m, q3 = (float(v) for v in np.percentile(x, [25.0, 50.0, 75.0]))
    spread = (q3 - q1) / 1.349 or float(np.std(x))
    if spread == 0.0:
        raise ValueError("degenerate sample: zero variance")
    lsp = math.log(spread)
    lo = np.array([-np.inf, lsp - 12.0, -6.0, -6.0])
    hi = np.array([np.inf, lsp + 12.0, 12.0, 12.0])
    nll = _skewt_objective(x)
    best = minimize(nll, (m, lsp, math.log(3.0), math.log(3.0)), _MAXITER, nll.curvature,
                    box=(lo, hi), refresh=True)
    loc, lsc, la, lb = best.x
    spec = MarginSpec("skewt", (float(loc), math.exp(lsc), math.exp(la), math.exp(lb)))
    # a point on the box edge is a limiting form of the family, not an optimum;
    # a run that nears a bound along a flat ridge can stop a rounding error inside
    tol = 1e-9 * np.maximum(1.0, np.abs(best.x))
    interior = bool(np.all((best.x > lo + tol) & (best.x < hi - tol)))
    return MarginFit(spec=spec, loglik=-float(best.fun), converged=bool(best.success) and interior,
                     run=best)
