"""Tests for the Gaussian and skew-t margins."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate, stats

from oracles import skewt_cdf_quadrature, skewt_quantile_root
from mcvar.margins import (
    MarginSpec,
    cdf,
    fit_margin,
    from_normal,
    logpdf,
    pdf,
    pit_to_normal,
    quantile,
)
from mcvar.varprocess import seeded_normals


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


def test_fit_margin_on_the_box_edge_is_not_converged():
    # the paper's bivariate k = 2 skew-t model: on this replicate the first
    # variable's best fit runs to log b = 12, the edge of the box, a limiting
    # form of the family rather than an optimum; the second fits inside it
    from mcvar.closure import CrossFixedBlock, Partition, SubprocessCorr
    from mcvar.estimation import construct_model, simulate_model

    subs = [SubprocessCorr(blocks=tuple(np.array([[v]]) for v in values))
            for values in ([1.0, -0.8, 0.6], [1.0, 0.6, 0.5])]
    truth = construct_model(
        Partition(sets=((0,), (1,)), d=2), (2, 2), 2,
        (MarginSpec("skewt", (0.850, 0.791, 5.739, 9.344)),
         MarginSpec("skewt", (-0.032, 0.172, 3.053, 2.738))),
        subs, [CrossFixedBlock((0, 1), 0, [[0.35]])])
    x = simulate_model(truth, 2000, 23 * 1_000_003 + 23)
    edge = fit_margin(x[0], "skewt")
    assert np.log(edge.spec.params[3]) == pytest.approx(12.0, abs=1e-12)
    assert not edge.converged
    inside = fit_margin(x[1], "skewt")
    assert inside.converged
