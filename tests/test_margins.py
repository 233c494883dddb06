"""Tests for the Gaussian and skew-t margins."""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy import integrate, stats
from scipy.special import betainc, expit, ndtri

from oracles import (
    fit_margin_three_starts,
    from_normal_exact,
    skewt_cdf_quadrature,
    skewt_quantile_root,
)
from mcvar.margins import (
    PIT_CLAMP,
    MarginSpec,
    _logit_table,
    cdf,
    fit_margin,
    from_normal,
    logpdf,
    pdf,
    pit_to_normal,
    quantile,
)
from mcvar.varprocess import seeded_normals

DATA = Path(__file__).parent / "data"


def test_margin_spec_validation():
    MarginSpec("gaussian", (0.0, 1.0))
    MarginSpec("skewt", (0.0, 1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        MarginSpec("gaussian", (0.0, 0.0))
    with pytest.raises(ValueError):
        MarginSpec("gaussian", (0.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        MarginSpec("skewt", (0.0, 1.0, -1.0, 2.0))
    with pytest.raises(ValueError):
        MarginSpec("cauchy", (0.0, 1.0))
    rt = MarginSpec.from_dict(MarginSpec("skewt", (1.0, 2.0, 3.0, 4.0)).to_dict())
    assert rt.family == "skewt" and rt.params == (1.0, 2.0, 3.0, 4.0)


@pytest.mark.parametrize("family, params", [
    ("gaussian", (0.0, np.nan)),
    ("gaussian", (np.inf, 1.0)),
    ("skewt", (0.0, 1.0, np.inf, 2.0)),
])
def test_margin_spec_rejects_non_finite_parameters(family, params):
    with pytest.raises(ValueError, match="finite"):
        MarginSpec(family, params)


def test_gaussian_margin_matches_scipy():
    spec = MarginSpec("gaussian", (0.3, 1.7))
    x = np.linspace(-5.0, 5.0, 41)
    assert_allclose(logpdf(x, spec), stats.norm.logpdf(x, 0.3, 1.7), atol=1e-12)
    assert_allclose(cdf(x, spec), stats.norm.cdf(x, 0.3, 1.7), atol=1e-14)
    u = np.linspace(0.01, 0.99, 21)
    assert_allclose(quantile(u, spec), stats.norm.ppf(u, 0.3, 1.7), atol=1e-12)
    # exact affine PIT, no probability round trip
    assert_allclose(pit_to_normal(x, spec), (x - 0.3) / 1.7, rtol=0, atol=0)
    assert_allclose(from_normal(pit_to_normal(x, spec), spec), x, atol=1e-12)


@pytest.mark.parametrize("a", [1.5, 3.0, 7.0])
def test_skewt_equal_parameters_is_student_t(a):
    # with a = b the density kernel is (1 + s^2/(2a))^-(2a+1)/2: a Student-t
    # with 2a degrees of freedom at unit scale.  Entirely different plumbing
    # in scipy (gamma functions vs incomplete beta), so agreement is a real check.
    spec = MarginSpec("skewt", (0.0, 1.0, a, a))
    x = np.linspace(-8.0, 8.0, 33)
    assert_allclose(logpdf(x, spec), stats.t.logpdf(x, 2 * a), atol=1e-10)
    assert_allclose(cdf(x, spec), stats.t.cdf(x, 2 * a), atol=1e-12)
    u = np.linspace(0.02, 0.98, 25)
    assert_allclose(quantile(u, spec), stats.t.ppf(u, 2 * a), atol=1e-9)


def test_skewt_location_scale_family():
    base = MarginSpec("skewt", (0.0, 1.0, 2.0, 5.0))
    shifted = MarginSpec("skewt", (1.5, 2.5, 2.0, 5.0))
    x = np.linspace(-6.0, 9.0, 31)
    assert_allclose(pdf(x, shifted), pdf((x - 1.5) / 2.5, base) / 2.5, atol=1e-12)
    assert_allclose(cdf(x, shifted), cdf((x - 1.5) / 2.5, base), atol=1e-12)


def test_skewt_density_is_normalized_and_skewed():
    spec = MarginSpec("skewt", (0.4, 1.2, 3.0, 9.0))
    total, _ = integrate.quad(lambda s: pdf(s, spec), -np.inf, np.inf, limit=200)
    assert_allclose(total, 1.0, atol=1e-9)
    # b > a tilts mass left of the location: the density is asymmetric
    assert not np.isclose(pdf(0.4 + 1.0, spec), pdf(0.4 - 1.0, spec), atol=1e-4)


def test_skewt_variance_equal_parameters():
    # Var = a/(a-1) for a = b (matches the 2a-df Student-t variance 2a/(2a-2))
    a = 3.0
    spec = MarginSpec("skewt", (0.0, 1.0, a, a))
    second, _ = integrate.quad(lambda s: s * s * pdf(s, spec), -np.inf, np.inf, limit=200)
    assert_allclose(second, a / (a - 1.0), atol=1e-8)


def test_skewt_cdf_matches_quadrature_oracle():
    spec = MarginSpec("skewt", (-0.5, 0.8, 2.5, 6.0))
    for x in [-3.0, -1.0, -0.4, 0.0, 0.7, 2.0, 5.0]:
        ref = skewt_cdf_quadrature(x, lambda s: pdf(s, spec))
        assert_allclose(cdf(x, spec), ref, atol=1e-9)


def test_skewt_quantile_matches_root_oracle():
    spec = MarginSpec("skewt", (0.2, 1.3, 4.0, 2.0))
    for u in [0.01, 0.2, 0.5, 0.8, 0.99]:
        ref = skewt_quantile_root(u, lambda s: pdf(s, spec), lo=-1e4, hi=1e4)
        assert_allclose(quantile(u, spec), ref, atol=1e-7)


def test_quantile_rejects_boundary():
    spec = MarginSpec("gaussian", (0.0, 1.0))
    with pytest.raises(ValueError):
        quantile(0.0, spec)
    with pytest.raises(ValueError):
        quantile(np.array([0.5, 1.0]), spec)


def test_skewt_pit_roundtrip():
    spec = MarginSpec("skewt", (0.1, 0.9, 3.0, 5.0))
    x = quantile(np.linspace(0.01, 0.99, 25), spec)
    z = pit_to_normal(x, spec)
    assert_allclose(from_normal(z, spec), x, atol=1e-8)
    # monotone map
    assert np.all(np.diff(z) > 0)


@pytest.mark.parametrize("a, b, z", [
    (0.1, 3.0, np.append(seeded_normals(7, 2000), -2.0)),
    (0.3, 3.0, np.array([-4.4, -4.5, -7.0])),
])
def test_skewt_from_normal_is_finite_deep_in_the_lower_tail(a, b, z):
    # forming t = 2x - 1 rounded it to -1, and the quantile to -inf, once x < 1e-16
    spec = MarginSpec("skewt", (0.0, 1.0, a, b))
    assert np.all(np.isfinite(from_normal(z, spec)))
    assert np.all(np.isfinite(from_normal_exact(z, spec)))


# a = 0.1 puts the beta argument of this sample below 1e-16 from z = -2 on
SMALL_A = MarginSpec("skewt", (0.0, 1.0, 0.1, 3.0))


def small_a_sample():
    return from_normal(seeded_normals(5, 2000), SMALL_A)


def test_skewt_density_is_the_cdf_slope_deep_in_the_lower_tail():
    # through t = s/sqrt(a+b+s^2) and log1p(t), 67 of these values had log density -inf
    x = small_a_sample()
    lp = logpdf(x, SMALL_A)
    assert np.all(np.isfinite(lp))
    h = 1e-6 * np.maximum(1.0, np.abs(x))
    slope = (cdf(x + h, SMALL_A) - cdf(x - h, SMALL_A)) / (2.0 * h)
    assert_allclose(np.exp(lp), slope, rtol=1e-6, atol=0)


def test_fit_margin_skewt_deep_lower_tail_sample():
    # the sample's sd is about 1e28: a box centred on it left out the true scale
    fit = fit_margin(small_a_sample(), "skewt")
    loc, _, a, _ = fit.spec.params
    assert fit.converged
    assert 0.05 < a < 0.2
    assert abs(loc) < 1.0


def test_skewt_lower_tail_score_round_trips():
    spec = MarginSpec("skewt", (0.0, 1.0, 0.6, 2.0))
    assert abs(pit_to_normal(from_normal(np.array([-6.0]), spec), spec)[0] + 6.0) < 1e-9


@pytest.mark.parametrize("a, b", [(0.1, 3.0), (0.3, 3.0), (0.6, 2.0), (4.0, 2.0), (20.0, 0.05)])
def test_skewt_quantile_inverts_betainc_in_both_tails(a, b):
    spec = MarginSpec("skewt", (0.0, 1.0, a, b))
    tail = np.geomspace(1e-12, 0.5, 25)
    for u in (tail, 1.0 - tail):
        w = 2.0 * np.arcsinh(quantile(u, spec) / math.sqrt(a + b))
        # P(X <= x) = I_x(a, b) and P(X > x) = I_{1-x}(b, a), each checked on
        # the side of x = 1/2 where x, or 1 - x, carries it to full precision
        below = w <= 0.0
        assert_allclose(betainc(a, b, expit(w[below])), u[below], rtol=1e-12, atol=0)
        assert_allclose(betainc(b, a, expit(-w[~below])), 1.0 - u[~below], rtol=1e-12, atol=0)


@pytest.mark.parametrize("a", [0.1, 0.3, 0.6])
def test_skewt_cdf_inverts_quantile_in_the_lower_tail(a):
    spec = MarginSpec("skewt", (0.2, 1.3, a, 3.0))
    u = np.geomspace(1e-12, 0.5, 40)
    assert_allclose(cdf(quantile(u, spec), spec), u, rtol=1e-12, atol=0)


_SKEWT = st.builds(
    lambda loc, log_scale, log_a, log_b: MarginSpec(
        "skewt", (loc, math.exp(log_scale), math.exp(log_a), math.exp(log_b))),
    st.floats(-5.0, 5.0), st.floats(-3.0, 3.0), st.floats(-3.0, 12.0), st.floats(-3.0, 12.0))
_SCORES = st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=16).map(np.array)
# a = b = e^-3 misses the table's midpoint check and takes the exact path
_CORNER = MarginSpec("skewt", (0.0, 1.0, math.exp(-3.0), math.exp(-3.0)))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(spec=_SKEWT, z=_SCORES)
@example(spec=_CORNER, z=np.linspace(-8.0, 8.0, 3201))
def test_from_normal_matches_the_exact_quantile(spec, z):
    loc, scale = spec.params[:2]
    got = (from_normal(z, spec) - loc) / scale
    ref = (from_normal_exact(z, spec) - loc) / scale
    assert np.all(np.abs(got - ref) <= 1e-10 * np.maximum(1.0, np.abs(ref)))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(spec=_SKEWT, z=_SCORES)
@example(spec=_CORNER, z=np.linspace(-8.0, 8.0, 33))
def test_from_normal_round_trips_through_pit_to_normal(spec, z):
    # scores beyond the clamp come back at the clamp
    z_max = -ndtri(PIT_CLAMP)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        back = pit_to_normal(from_normal(z, spec), spec)
    assert_allclose(back, np.clip(z, -z_max, z_max), rtol=0, atol=1e-8)


@pytest.mark.parametrize("a, b", [(5.739, 9.344), (3.053, 2.738), (3.0, 5.0), (0.1, 3.0), (20.0, 0.05)])
def test_skewt_table_passes_its_check(a, b):
    # the benchmark and paper margins, and both strongly skewed directions,
    # read their values off the table rather than the exact path
    assert _logit_table(a, b) is not None


def test_from_normal_falls_back_to_the_exact_path_bit_for_bit():
    # at a = b = e^-6 some table nodes are not finite, so (a, b) takes the exact path
    a = math.exp(-6.0)
    spec = MarginSpec("skewt", (0.3, 1.7, a, a))
    assert _logit_table(a, a) is None
    z = np.linspace(-8.0, 8.0, 65)
    assert np.array_equal(from_normal(z, spec), from_normal_exact(z, spec))


def test_pit_clamp_warns():
    spec = MarginSpec("skewt", (0.0, 0.1, 2.0, 2.0))
    with pytest.warns(RuntimeWarning, match="clamped"):
        z = pit_to_normal(np.array([0.0, 1e12]), spec)
    assert np.isfinite(z).all()


def test_fit_margin_gaussian_closed_form():
    x = np.array([1.0, 2.0, 3.0, 4.0, 10.0])
    fit = fit_margin(x, "gaussian")
    assert fit.converged
    assert_allclose(fit.spec.params[0], np.mean(x), atol=1e-12)
    assert_allclose(fit.spec.params[1], np.std(x), atol=1e-12)
    assert_allclose(fit.loglik, float(np.sum(logpdf(x, fit.spec))), atol=1e-10)


def test_fit_margin_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_margin(np.array([1.0, 2.0]), "gaussian")
    with pytest.raises(ValueError):
        fit_margin(np.ones(10), "gaussian")
    with pytest.raises(ValueError):
        fit_margin(np.arange(10.0), "uniform")


def test_fit_margin_skewt_recovers_parameters():
    true = MarginSpec("skewt", (0.5, 1.2, 3.0, 6.0))
    # deterministic sample through the quantile of seeded normal scores
    z = seeded_normals(21, 3000)
    from scipy.special import ndtr

    x = quantile(np.clip(ndtr(z), 1e-12, 1 - 1e-12), true)
    fit = fit_margin(x, "skewt")
    assert fit.spec.family == "skewt"
    # the optimum must be at least as good as the truth on this sample
    ll_true = float(np.sum(logpdf(x, true)))
    assert fit.loglik >= ll_true - 1e-6
    assert abs(fit.spec.params[0] - 0.5) < 0.4
    assert abs(fit.spec.params[1] - 1.2) < 0.6

@pytest.mark.parametrize("family", ["gaussian", "skewt"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_margin_rejects_a_non_finite_sample(family, bad):
    x = np.linspace(-1.0, 2.0, 50)
    x[[3, 17]] = bad
    with pytest.raises(ValueError, match="2 non-finite value"):
        fit_margin(x, family)


def _edge_replicate():
    """A paper_k2 replicate whose first variable's skew-t fit runs to the box edge.

    The 2 x 2000 sample is stored, not simulated here, so that the margin tests
    on it do not move with the last bits of ``simulate_model``.  It was drawn
    by ``simulate_model(truth, 2000, 23 * 1_000_003 + 23)`` with the latent
    recursion in blocks of 16 steps through a dense impulse-response matrix,
    truth being the paper's bivariate k = 2 model: skew-t margins
    (0.850, 0.791, 5.739, 9.344) and (-0.032, 0.172, 3.053, 2.738), scalar
    sub-processes with autocorrelations (1, -0.8, 0.6) and (1, 0.6, 0.5),
    labels (2, 2) and the lag-0 cross block 0.35.
    """
    return np.load(DATA / "edge_replicate.npy")


def test_fit_margin_on_the_box_edge_is_not_converged():
    # the paper's bivariate k = 2 skew-t model: on this replicate the first
    # variable's best fit runs to log b = 12, the edge of the box, a limiting
    # form of the family rather than an optimum; the second fits inside it
    x = _edge_replicate()
    edge = fit_margin(x[0], "skewt")
    assert np.log(edge.spec.params[3]) == pytest.approx(12.0, abs=1e-12)
    assert not edge.converged
    inside = fit_margin(x[1], "skewt")
    assert inside.converged


def test_fit_margin_a_rounding_error_inside_the_box_edge_is_not_converged(monkeypatch):
    # L-BFGS-B can stop at log b = 12 - 2.7e-14 on a fit that ran into the
    # edge: that is still the edge, not an interior optimum
    import mcvar.margins as margins

    real = margins.minimize

    def inside_by_rounding(*args, **kwargs):
        res = real(*args, **kwargs)
        res.x = res.x.copy()
        res.x[3] = 12.0 - 2.7e-14
        return res

    monkeypatch.setattr(margins, "minimize", inside_by_rounding)
    assert not fit_margin(_edge_replicate()[0], "skewt").converged


def test_fit_margin_keeps_the_record_of_its_run():
    x = np.sinh(seeded_normals(3, 500))
    assert fit_margin(x, "gaussian").run is None
    fit = fit_margin(x, "skewt")
    assert fit.run.nfev > 0 and fit.converged and fit.run.success
    assert fit.loglik == -fit.run.fun
    assert fit_margin(x, "skewt") == fit  # a second run's record is not compared


def test_fit_margin_makes_one_run(monkeypatch):
    # one start, (a, b) = (3, 3) at the sample median: on the box-edge
    # replicate its run takes 204 evaluations, where three runs took 632
    import mcvar.margins as margins

    real, runs = margins.minimize, []

    def recorded(nll, x0, *args, **kwargs):
        runs.append((np.shape(x0), real(nll, x0, *args, **kwargs)))
        return runs[-1][1]

    monkeypatch.setattr(margins, "minimize", recorded)
    fit_margin(_edge_replicate()[0], "skewt")
    assert [shape for shape, _ in runs] == [(4,)]
    assert runs[0][1].nfev <= 250


def _skewt_sample(a, b, T, loc, scale, seed):
    return from_normal(seeded_normals(seed, T), MarginSpec("skewt", (loc, scale, a, b)))


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(x=st.builds(_skewt_sample, a=_log_uniform(0.1, 30.0), b=_log_uniform(0.1, 30.0),
                   T=st.integers(100, 2000), loc=st.floats(-5.0, 5.0),
                   scale=_log_uniform(0.01, 100.0), seed=st.integers(0, 2**32 - 1)))
@example(x=small_a_sample())
@example(x=_edge_replicate()[0])
def test_fit_margin_from_one_start_is_as_good_as_three(x):
    # wherever the three-start fit ends inside the box, the one start ends
    # at its value; on the box edge the likelihood is flat along a ridge and
    # the runs stop at points a rounding error or more apart
    fit = fit_margin(x, "skewt")
    loglik, interior = fit_margin_three_starts(x)
    if interior:
        assert fit.loglik >= loglik - 1e-6
