"""VAR(k) processes: Yule-Walker conversion, autocovariance extension, simulation.

Lag convention used throughout: ``Gamma(l) = Cov(Z_t, Z_{t-l})`` so that
``Gamma(-l) = Gamma(l).T``.  Series are stored as d x T arrays (one row per
variable).
"""

import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_discrete_lyapunov
from scipy.linalg.lapack import dpotrs
from scipy.special import ndtri

from .linalg import PD_TOL, _block_toeplitz, _lag_toeplitz, symmetrize

STATIONARITY_TOL = 1e-8
# Elementwise work is split across threads only in parts of at least this many
# values; a smaller call runs on the calling thread alone.
MIN_CHUNK = 2**16

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
    """Forward and backward order-k predictors by one Yule-Walker solve.

    ``acov`` holds Gamma(0)..Gamma(m), m >= k >= 1.  Element j of ``forward``
    (Phi_{k,1..k}) or ``backward`` (Psi_{k,1..k}) multiplies Z_{t-1-j},
    predicting Z_t or Z_{t-k-1} from the window Z_{t-1}..Z_{t-k}.  Both solve
    P T = g through one Cholesky factor T = L L^T (``factor``), with T the
    window's block Toeplitz covariance, newest first (block (r, s) is
    Gamma(s - r)), and g = [Gamma(1) ... Gamma(k)] or [Gamma(k)^T ... Gamma(1)^T];
    ``forward_error`` and ``backward_error`` are Gamma(0) - P g^T.  Raises
    LinAlgError unless T is positive definite and the smallest eigenvalue of
    both errors exceeds PD_TOL; an error covariance only falls as the order
    grows, so this covers every lower order too.
    """
    if k < 1:
        raise ValueError("order k must be at least 1, got %d" % k)
    if len(acov) < k + 1:
        raise ValueError("need autocovariances up to lag k=%d, got %d blocks" % (k, len(acov)))
    gam = np.array([np.atleast_2d(g) for g in acov[:k + 1]], dtype=float)
    d = gam.shape[1]
    lags = np.concatenate([gam[:0:-1].swapaxes(1, 2), gam])  # Gamma(-k)..Gamma(k)
    try:
        factor = np.linalg.cholesky(_block_toeplitz(lags[1:-1]))
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "order-%d window covariance is not positive definite" % k) from exc
    # g^T of both predictors: row block j is [Gamma(-1-j), Gamma(k-j)]
    rhs = np.concatenate([lags[k - 1::-1], lags[:k:-1]], axis=2).reshape(k * d, 2 * d)
    coef = dpotrs(factor, rhs, lower=1)[0].T.reshape(2, d, k * d)
    err = gam[0] - coef @ rhs.T.reshape(2, d, k * d).swapaxes(1, 2)
    err = 0.5 * (err + err.swapaxes(1, 2))
    try:  # smallest eigenvalues above PD_TOL, as Choleskys of the shifted matrices
        np.linalg.cholesky(err - PD_TOL * np.eye(d))
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "order-%d prediction-error covariance is not positive definite" % k) from exc
    fwd, bwd = coef.reshape(2, d, k, d).swapaxes(1, 2)
    return {"forward": list(fwd), "backward": list(bwd), "forward_error": err[0],
            "backward_error": err[1], "factor": factor}


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
    for l in range(k, m + 1):
        gam.append(sum((var.phi[j] @ gam[l - 1 - j] for j in range(k)), np.zeros((d, d))))
    return gam[: m + 1]


def _in_chunks(fn, n, width=1):
    """Call fn(lo, hi) on contiguous parts that cover [0, n), ``width`` values per index.

    There are min(usable CPUs, n * width // MIN_CHUNK) parts, at least one;
    part i is [n * i // parts, n * (i + 1) // parts).  One part is fn(0, n) on
    the calling thread, with no pool.  More run on a thread pool that lives
    for this call only, the first part on the calling thread.  fn must write
    only its own part and call no BLAS routine, whose sums may depend on the
    thread count.  An exception raised in a part is raised here.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        cpus = os.cpu_count() or 1
    parts = max(1, min(cpus, n * width // MIN_CHUNK))
    if parts == 1:
        fn(0, n)
        return
    from concurrent.futures import ThreadPoolExecutor

    cuts = [n * i // parts for i in range(parts + 1)]
    with ThreadPoolExecutor(parts - 1) as pool:
        rest = [pool.submit(fn, lo, hi) for lo, hi in zip(cuts[1:-1], cuts[2:])]
        fn(cuts[0], cuts[1])
        for future in rest:
            future.result()


def _fill_normals(seed, flat, lo, hi):
    """Positions lo..hi-1 of ``seed``'s normal stream, into flat[lo:hi].

    A float64 draw takes exactly one 64-bit PCG64 output, so a generator
    advanced by lo outputs draws position lo onward of the one stream.
    """
    u = flat[lo:hi]
    np.random.Generator(np.random.PCG64(seed).advance(lo)).random(out=u)
    u += 2.0**-54
    ndtri(u, out=u)


def seeded_normals(seed, shape):
    """Deterministic standard normals: PCG64 53-bit uniforms through the inverse CDF.

    ``shape`` is an int or a tuple.  Each uniform is PCG64's 53-bit draw
    n * 2^-53 plus 2^-54, that is (n + 0.5) * 2^-53 rounded once, so it lies
    strictly inside (0, 1); it goes through the inverse normal CDF in place.
    Value i of the flattened output is stream position i however the work is
    split across threads, so the output is reproducible bit-for-bit for a
    given seed on any platform and any number of CPUs.
    """
    out = np.empty(shape)
    flat = out.reshape(-1)
    _in_chunks(lambda lo, hi: _fill_normals(seed, flat, lo, hi), flat.size)
    return out


def _state_responses(var, m):
    """The first d rows of F, F^2, ..., F^m (F the companion matrix), for :func:`simulate`.

    Returns the (md x kd) C whose row block i is the first d rows of F^{i+1},
    its column blocks ordered to act on the window (Z_{t-k}, ..., Z_{t-1}),
    oldest first: row block i maps the k observations before a block to its
    step i when the block's shocks are zero.  The rows are formed in long
    double by the recursion C_{i+1} = C_i F and rounded once to float64:
    powers of a non-normal F near the unit circle formed in float64 carry
    rounding that the step-by-step recursion does not.
    """
    d, k = var.d, var.k
    C = np.empty((m, d, k * d), dtype=np.longdouble)
    C[0] = np.hstack(var.phi)  # the first d rows of F
    for i in range(1, m):
        # C_i F: the first column block through F's top rows, the rest
        # through its shifted identity blocks
        np.matmul(C[i - 1, :, :d], C[0], out=C[i])
        C[i, :, :-d] += C[i - 1, :, d:]
    return C.astype(float).reshape(m * d, k, d)[:, ::-1].reshape(m * d, k * d)


def simulate(var, T, seed):
    """Simulate T observations of a stationary VAR, exact stationary start.

    The first k observations are drawn from the stationary joint law of
    (Z_1, ..., Z_k) via a Cholesky factor of its block Toeplitz covariance.
    Later rows of a time-major buffer start as the shocks Le eps_t and are
    cut into blocks of m = max(16, k, isqrt(T) // 4) steps, the last one
    padded with zero shocks.  Each block's zero-state path, its shocks
    through the recursion from a zero window, comes from the per-lag
    recursion run for every block at once: step i is one GEMM of the
    blocks' previous min(i, k) rows with the stacked coefficients, added in
    place.  A loop over the blocks then carries the window of k rows with
    the last k row blocks of :func:`_state_responses`, and chunks of m
    blocks add each block's carry-in, C applied to the window before it.
    Output is d x T, a transposed view of the buffer.
    """
    d, k = var.d, var.k
    try:  # implied_autocov refuses a VAR that is not stationary
        gam = implied_autocov(var, max(k - 1, 0))
    except ValueError:
        raise ValueError("simulate requires a stationary VAR") from None
    if T < k:
        raise ValueError("T=%d shorter than order k=%d" % (T, k))
    # block (r, s) is Gamma(r - s), the lag-(s - r) block of the transposes
    init_cov = _lag_toeplitz([g.T for g in gam])
    L0 = np.linalg.cholesky(symmetrize(init_cov, tol=1e-8))
    Le = np.linalg.cholesky(var.sigma)

    eps = seeded_normals(seed, (d, T))
    m = max(16, k, math.isqrt(T) // 4)
    n_blocks = -(-(T - k) // m)
    z = np.empty((k + n_blocks * m, d))
    z[:k] = (L0 @ eps[:, :k].reshape(-1, order="F")).reshape(k, d)
    z[k:T] = (Le @ eps[:, k:]).T
    z[T:] = 0.0
    blocks = z[k:].reshape(n_blocks, m * d)
    coef = np.vstack([p.T for p in var.phi[::-1]])  # acts on Z_{t-k}, ..., Z_{t-1}
    tmp = np.empty((n_blocks, d))
    for i in range(1, m):
        j = min(i, k)
        step = blocks[:, i * d:(i + 1) * d]
        np.add(step, np.matmul(blocks[:, (i - j) * d:i * d], coef[-j * d:], out=tmp), out=step)
    C = _state_responses(var, m)
    carry = C[-k * d:]  # a block's last k steps: the next block's window
    # row b: the k rows before block b, block b-1's zero-state last k steps
    # plus the carry of the window before it
    windows = np.empty((n_blocks, k * d))
    windows[:1] = z[:k].reshape(1, -1)
    windows[1:] = blocks[:-1, -k * d:]
    rows = list(windows)
    for prev, window in zip(rows, rows[1:]):
        window += carry @ prev
    for lo in range(0, n_blocks, m):
        blocks[lo:lo + m] += windows[lo:lo + m] @ C.T
    return z[:T].T


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
        rho = [a[i, i] / autocov[0][i, i] for a in autocov]
        for n in range(1, max_lag + 1):  # the last order-n forward coefficient
            pacf[i, n - 1] = whittle_recursion(rho, n)["forward"][-1][0, 0]
    return SampleStats(autocov=tuple(autocov), pacf=pacf)
