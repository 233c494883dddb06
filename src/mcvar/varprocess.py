"""VAR(k) processes: Yule-Walker conversion, autocovariance extension, simulation.

Lag convention used throughout: ``Gamma(l) = Cov(Z_t, Z_{t-l})`` so that
``Gamma(-l) = Gamma(l).T``.  Series are stored as d x T arrays (one row per
variable).
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_discrete_lyapunov
from scipy.special import ndtri

from .linalg import PD_TOL, symmetrize

STATIONARITY_TOL = 1e-8

__all__ = [
    "VarRepresentation",
    "whittle_recursion",
    "durbin_levinson",
    "implied_autocov",
    "is_stationary",
    "simulate",
    "residuals",
    "SampleStats",
    "sample_statistics",
    "seeded_normals",
]


@dataclass(frozen=True)
class VarRepresentation:
    """Coefficient matrices Phi_1..Phi_k and innovation covariance Sigma_eps."""

    phi: tuple
    sigma: np.ndarray

    def __post_init__(self):
        phi = tuple(np.asarray(p, dtype=float) for p in self.phi)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "sigma", symmetrize(self.sigma))
        d = self.sigma.shape[0]
        for p in phi:
            if p.shape != (d, d):
                raise ValueError("coefficient block shape %s != (%d, %d)" % (p.shape, d, d))

    @property
    def d(self):
        return self.sigma.shape[0]

    @property
    def k(self):
        return len(self.phi)

    def companion(self):
        """dk x dk companion matrix of the lag polynomial."""
        d, k = self.d, self.k
        F = np.zeros((d * k, d * k))
        for m, p in enumerate(self.phi):
            F[:d, m * d:(m + 1) * d] = p
        if k > 1:
            F[d:, :-d] = np.eye(d * (k - 1))
        return F


def whittle_recursion(acov, k):
    """Multivariate Durbin-Levinson recursion on autocovariance blocks.

    Parameters
    ----------
    acov : sequence of ndarray
        Gamma(0)..Gamma(m) with m >= k.
    k : int
        Target order.

    Returns
    -------
    dict with keys ``forward`` (Phi_{k,1..k}) and ``backward`` (Psi_{k,1..k}):
    element j of either list multiplies Z_{t-1-j}, predicting Z_t forward and
    Z_{t-k-1} backward from the same window Z_{t-1}..Z_{t-k}.  The
    ``forward_error`` / ``backward_error`` entries are the prediction-error
    covariances after k steps.
    """
    gam = [np.atleast_2d(np.asarray(g, dtype=float)) for g in acov]
    if len(gam) < k + 1:
        raise ValueError("need autocovariances up to lag k=%d, got %d blocks" % (k, len(gam)))

    def g(l):
        return gam[l] if l >= 0 else gam[-l].T

    vf = gam[0].copy()  # forward prediction error covariance
    vb = gam[0].copy()  # backward prediction error covariance
    fwd, bwd = [], []
    for n in range(1, k + 1):
        delta = g(n) - sum((fwd[j] @ g(n - 1 - j) for j in range(n - 1)), np.zeros_like(vf))
        try:
            a_nn = np.linalg.solve(vb.T, delta.T).T
            b_nn = np.linalg.solve(vf.T, delta).T
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                "Durbin-Levinson breakdown at stage %d: %s" % (n, exc)
            ) from exc
        new_fwd = [fwd[j] - a_nn @ bwd[n - 2 - j] for j in range(n - 1)] + [a_nn]
        new_bwd = [bwd[j] - b_nn @ fwd[n - 2 - j] for j in range(n - 1)] + [b_nn]
        vf = vf - a_nn @ delta.T
        vb = vb - b_nn @ delta
        vf = 0.5 * (vf + vf.T)
        vb = 0.5 * (vb + vb.T)
        if np.linalg.eigvalsh(vf)[0] <= PD_TOL or np.linalg.eigvalsh(vb)[0] <= PD_TOL:
            raise np.linalg.LinAlgError(
                "prediction-error covariance lost positive definiteness at stage %d" % n
            )
        fwd, bwd = new_fwd, new_bwd
    # The recursion indexes backward coefficients from the predicted point
    # (coefficient j on Z_{t-k-1+j}); flip so both lists index by lag from t.
    return {
        "forward": fwd,
        "backward": list(reversed(bwd)),
        "forward_error": vf,
        "backward_error": vb,
    }


def durbin_levinson(acov, k):
    """VAR(k) representation whose autocovariances match ``acov`` up to lag k."""
    state = whittle_recursion(acov, k)
    return VarRepresentation(phi=tuple(state["forward"]), sigma=state["forward_error"])


def is_stationary(var, tol=STATIONARITY_TOL):
    """True iff the companion spectral radius is below 1 - tol."""
    eig = np.linalg.eigvals(var.companion())
    return bool(np.max(np.abs(eig)) < 1.0 - tol)


def implied_autocov(var, m):
    """Autocovariance blocks Gamma(0)..Gamma(m) of a stationary VAR.

    Gamma(0)..Gamma(k-1) come from the discrete Lyapunov equation
    S = F S F' + Q of the companion form; higher lags follow the recursion
    Gamma(l) = sum_j Phi_j Gamma(l - j).
    """
    if not is_stationary(var):
        raise ValueError("implied_autocov requires a stationary VAR")
    d, k = var.d, var.k
    F = var.companion()
    Q = np.zeros_like(F)
    Q[:d, :d] = var.sigma
    S = solve_discrete_lyapunov(F, Q)
    S = 0.5 * (S + S.T)
    gam = [S[:d, l * d:(l + 1) * d] for l in range(k)]
    gam[0] = 0.5 * (gam[0] + gam[0].T)

    def g(l):
        return gam[l] if l >= 0 else gam[-l].T

    for l in range(k, m + 1):
        gam.append(sum((var.phi[j] @ g(l - 1 - j) for j in range(k)), np.zeros((d, d))))
    return gam[: m + 1]


def seeded_normals(seed, shape):
    """Deterministic standard normals: PCG64 53-bit uniforms through the inverse CDF.

    The uniform draw is (n + 0.5) * 2^-53 with n a 53-bit PCG64 integer, so the
    output is reproducible bit-for-bit for a given seed on any platform.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    u = (rng.integers(0, 2**53, size=shape).astype(float) + 0.5) * 2.0**-53
    return ndtri(u)


def simulate(var, T, seed):
    """Simulate T observations of a stationary VAR, exact stationary start.

    The first k observations are drawn from the stationary joint law of
    (Z_1, ..., Z_k) via a Cholesky factor of its block Toeplitz covariance;
    later observations follow the recursion.  Output is d x T.
    """
    if not is_stationary(var):
        raise ValueError("simulate requires a stationary VAR")
    d, k = var.d, var.k
    if T < k:
        raise ValueError("T=%d shorter than order k=%d" % (T, k))
    gam = implied_autocov(var, max(k - 1, 0))

    def g(l):
        return gam[l] if l >= 0 else gam[-l].T

    init_cov = np.block([[g(r - s) for s in range(k)] for r in range(k)])
    L0 = np.linalg.cholesky(symmetrize(init_cov, tol=1e-8))
    Le = np.linalg.cholesky(var.sigma)

    eps = seeded_normals(seed, (d, T))
    z = np.empty((d, T))
    z[:, :k] = (L0 @ eps[:, :k].reshape(-1, order="F")).reshape((d, k), order="F")
    shocks = Le @ eps[:, k:]
    for t in range(k, T):
        acc = shocks[:, t - k]
        for m in range(k):
            acc = acc + var.phi[m] @ z[:, t - 1 - m]
        z[:, t] = acc
    return z


def residuals(z, var):
    """One-step VAR residuals z_t - sum_m Phi_m z_{t-m} for t = k+1..T (d x (T-k))."""
    d, k = var.d, var.k
    z = np.asarray(z, dtype=float)
    T = z.shape[1]
    out = z[:, k:].copy()
    for m in range(k):
        out -= var.phi[m] @ z[:, k - 1 - m:T - 1 - m]
    return out


@dataclass(frozen=True)
class SampleStats:
    """Sample autocovariance blocks and per-variable partial autocorrelations."""

    autocov: tuple
    pacf: np.ndarray


def sample_statistics(series, max_lag):
    """Biased-normalization sample autocovariances plus univariate PACFs.

    Parameters
    ----------
    series : ndarray, d x T
    max_lag : int
        Largest lag for both the autocovariance blocks and the PACFs.
    """
    x = np.atleast_2d(np.asarray(series, dtype=float))
    d, T = x.shape
    if T <= max_lag + 1:
        raise ValueError("series too short for max_lag=%d" % max_lag)
    if np.any(np.ptp(x, axis=1) == 0):
        raise ValueError("degenerate (constant) series")
    xc = x - x.mean(axis=1, keepdims=True)
    autocov = []
    for l in range(max_lag + 1):
        autocov.append(xc[:, l:] @ xc[:, : T - l].T / T)
    pacf = np.empty((d, max_lag))
    for i in range(d):
        rho = [autocov[l][i, i] / autocov[0][i, i] for l in range(max_lag + 1)]
        pacf[i] = _scalar_pacf(rho, max_lag)
    return SampleStats(autocov=tuple(autocov), pacf=pacf)


def _scalar_pacf(rho, max_lag):
    """Scalar Durbin-Levinson: autocorrelations rho_0..rho_m to PACFs."""
    out = np.empty(max_lag)
    phi = []
    v = 1.0
    for n in range(1, max_lag + 1):
        delta = rho[n] - sum(phi[j] * rho[n - 1 - j] for j in range(n - 1))
        a = delta / v
        phi = [phi[j] - a * phi[n - 2 - j] for j in range(n - 1)] + [a]
        v *= 1.0 - a * a
        if v <= 0:
            raise np.linalg.LinAlgError("sample autocorrelations are not a PD sequence")
        out[n - 1] = a
    return out
