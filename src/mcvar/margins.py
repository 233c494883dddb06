"""Univariate margins: Gaussian and a skew-t family with separate tail powers.

The skew-t density with location 0 and scale 1 is

    f(s) = 2^(1-a-b) / (B(a, b) sqrt(a+b)) (1+t)^(a+1/2) (1-t)^(b+1/2)

with t = s / sqrt(a + b + s^2); a = b recovers a Student-t with 2a degrees of
freedom up to scale, unequal parameters tilt the tails, and both parameters
large together approaches a Gaussian.  Distribution
function and quantile reduce to the regularized incomplete beta function via
the monotone map s -> (1+t)/2.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import optimize
from scipy.special import betainc, betaincinv, betaln, ndtr, ndtri

# PIT values are clamped into [PIT_CLAMP, 1 - PIT_CLAMP] before the normal
# quantile; exact 0/1 would map to infinities.
PIT_CLAMP = 1e-12

_LOG_2PI = float(np.log(2.0 * np.pi))

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
        params = tuple(float(p) for p in self.params)
        object.__setattr__(self, "params", params)
        names = FAMILY_PARAMS.get(self.family)
        if names is None:
            raise ValueError("unknown margin family %r" % self.family)
        if len(params) != len(names):
            raise ValueError("%s margin takes (%s)" % (self.family, ", ".join(names)))
        if params[1] <= 0:
            raise ValueError("scale must be positive")
        if any(p <= 0 for p in params[2:]):
            raise ValueError("tail parameters a, b must be positive")

    @property
    def n_params(self):
        return len(self.params)

    def to_dict(self):
        return {"family": self.family, "params": list(self.params)}

    @classmethod
    def from_dict(cls, d):
        return cls(family=d["family"], params=tuple(d["params"]))


def _skewt_t(s, a, b):
    return s / np.sqrt(a + b + s * s)


def _skewt_logconst(a, b):
    # log of the standardized density's normalization constant
    return (a + b - 1.0) * np.log(2.0) + betaln(a, b) + 0.5 * np.log(a + b)


def logpdf(x, margin):
    """Elementwise log density."""
    x = np.asarray(x, dtype=float)
    if margin.family == "gaussian":
        loc, scale = margin.params
        s = (x - loc) / scale
        return -0.5 * (_LOG_2PI + s * s) - np.log(scale)
    loc, scale, a, b = margin.params
    s = (x - loc) / scale
    t = _skewt_t(s, a, b)
    return (
        (a + 0.5) * np.log1p(t)
        + (b + 0.5) * np.log1p(-t)
        - _skewt_logconst(a, b)
        - np.log(scale)
    )


def pdf(x, margin):
    return np.exp(logpdf(x, margin))


def cdf(x, margin):
    x = np.asarray(x, dtype=float)
    if margin.family == "gaussian":
        loc, scale = margin.params
        return ndtr((x - loc) / scale)
    loc, scale, a, b = margin.params
    t = _skewt_t((x - loc) / scale, a, b)
    return betainc(a, b, 0.5 * (1.0 + t))


def quantile(u, margin):
    """Inverse distribution function; u outside (0, 1) raises."""
    u = np.asarray(u, dtype=float)
    if np.any((u <= 0.0) | (u >= 1.0)):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    if margin.family == "gaussian":
        loc, scale = margin.params
        return loc + scale * ndtri(u)
    loc, scale, a, b = margin.params
    t = 2.0 * betaincinv(a, b, u) - 1.0
    s = t * np.sqrt((a + b) / (1.0 - t * t))
    return loc + scale * s


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
    u = cdf(x, margin)
    clamped = int(np.sum((u < PIT_CLAMP) | (u > 1.0 - PIT_CLAMP)))
    if clamped:
        warnings.warn(
            "%d observation(s) clamped at the PIT boundary; tail fit is suspect" % clamped,
            RuntimeWarning,
            stacklevel=2,
        )
    u = np.clip(u, PIT_CLAMP, 1.0 - PIT_CLAMP)
    return ndtri(u)


def from_normal(z, margin):
    """Inverse of :func:`pit_to_normal`: normal scores to the data scale."""
    z = np.asarray(z, dtype=float)
    if margin.family == "gaussian":
        loc, scale = margin.params
        return loc + scale * z
    u = np.clip(ndtr(z), PIT_CLAMP, 1.0 - PIT_CLAMP)
    return quantile(u, margin)


@dataclass(frozen=True)
class MarginFit:
    spec: MarginSpec
    loglik: float
    converged: bool


# deterministic (a, b) starting pairs for the skew-t search: symmetric,
# left-heavy, right-heavy
_SKEWT_STARTS = ((3.0, 3.0), (2.0, 6.0), (6.0, 2.0))


def fit_margin(x, family):
    """Maximum likelihood fit of one margin family to a sample.

    Gaussian margins are closed form.  The skew-t margin is optimized by
    Nelder-Mead over (loc, log scale, log a, log b) from three deterministic
    starts, keeping the best.
    """
    x = np.asarray(x, dtype=float).ravel()
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

    m, sd = float(np.mean(x)), float(np.std(x))
    if sd == 0.0:
        raise ValueError("degenerate sample: zero variance")

    def nll(theta):
        loc, lsc, la, lb = theta
        if abs(lsc - np.log(sd)) > 12.0 or not (-6.0 < la < 12.0) or not (-6.0 < lb < 12.0):
            return np.inf
        spec = MarginSpec("skewt", (loc, np.exp(lsc), np.exp(la), np.exp(lb)))
        return -float(np.sum(logpdf(x, spec)))

    best = None
    ok = False
    for a0, b0 in _SKEWT_STARTS:
        theta0 = np.array([m, np.log(sd), np.log(a0), np.log(b0)])
        res = optimize.minimize(
            nll,
            theta0,
            method="Nelder-Mead",
            options={"maxiter": 4000, "xatol": 1e-8, "fatol": 1e-10},
        )
        if best is None or res.fun < best.fun:
            best = res
            ok = bool(res.success)
    loc, lsc, la, lb = best.x
    spec = MarginSpec("skewt", (float(loc), float(np.exp(lsc)), float(np.exp(la)), float(np.exp(lb))))
    return MarginFit(spec=spec, loglik=-float(best.fun), converged=ok)
