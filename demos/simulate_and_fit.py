#!/usr/bin/env python3
"""Round trip: construct a model, simulate from it, estimate it back.

A bivariate model is built from two scalar AR(1) sub-processes under
condition labels (2, 2), a contemporaneous cross correlation of 0.35, a
skew-t margin on the first variable and a Gaussian margin on the second.
After simulating 1500 observations the multi-stage fit runs margins first,
then each sub-process, then the cross dependence.  The script prints true
against estimated parameters, residual whiteness, and the information
criteria against an unrestricted VAR(1) copula benchmark with the same
margins: the one-set config, fitted by the same ``fit_model``.
"""

import numpy as np

from mcvar import (
    CrossFixedBlock,
    MarginSpec,
    ModelConfig,
    Partition,
    SubprocessCorr,
    construct_model,
    count_params,
    fit_model,
    latent_residuals,
    latent_scores,
    portmanteau,
    simulate_model,
    verify_closure,
)

PARTITION = Partition(sets=((0,), (1,)), d=2)
LABELS = (2, 2)
K = 1
TRUE_MARGINS = (
    MarginSpec(family="skewt", params=(0.5, 1.2, 3.0, 6.0)),
    MarginSpec(family="gaussian", params=(-0.5, 0.8)),
)
TRUE_SERIAL = (0.6, -0.4)
TRUE_CROSS = 0.35
T = 1500
SEED = 20240817


def true_model():
    subs = tuple(
        SubprocessCorr(blocks=(np.eye(1), np.array([[rho]]))) for rho in TRUE_SERIAL
    )
    fixed = CrossFixedBlock(pair=(0, 1), lag=0, value=np.array([[TRUE_CROSS]]))
    return construct_model(PARTITION, LABELS, K, TRUE_MARGINS, subs, (fixed,))


def show_margin(name, true, est):
    print("  %-12s true %s" % (name, np.array2string(np.array(true), precision=3)))
    print("  %-12s est  %s" % ("", np.array2string(np.array(est), precision=3)))


def main():
    model = true_model()
    data = simulate_model(model, T, seed=SEED)
    print("simulated %d observations of %d variables (seed %d)" % (T, data.shape[0], SEED))
    print()

    config = ModelConfig(
        partition=PARTITION,
        labels=LABELS,
        k=K,
        margin_families=tuple(m.family for m in TRUE_MARGINS),
    )
    fit = fit_model(data, config)

    print("margins")
    for i, (true, mf) in enumerate(zip(TRUE_MARGINS, fit.margin_fits)):
        show_margin("x%d %s" % (i + 1, true.family), true.params, mf.spec.params)
    print()

    print("latent dependence")
    for i, rho in enumerate(TRUE_SERIAL):
        est = fit.model.subs[i].block(1)[0, 0]
        print("  serial corr sub %d: true %+.3f  est %+.3f" % (i + 1, rho, est))
    est_cross = fit.model.crosses[0].block(0)[0, 0]
    print("  cross corr lag 0:  true %+.3f  est %+.3f" % (TRUE_CROSS, est_cross))
    print()

    resid = latent_residuals(latent_scores(data, fit.model.margins), fit.model.time_major_R(),
                             K)[:, K:]
    pm = portmanteau(resid, 12, K)
    print("residual portmanteau to lag 12: statistic %.1f, df %d, p = %.3f"
          % (pm.statistic, pm.df, pm.pvalue))
    print()

    print("closure check on the fitted correlation matrix:")
    print(verify_closure(fit.model.time_major_R(), PARTITION, K))
    print()

    one_set = ModelConfig(partition=Partition(sets=((0, 1),), d=2), labels=(1,), k=K,
                          margin_families=config.margin_families)
    bench = fit_model(data, one_set)
    print("model comparison")
    print("  %-14s loglik %10.2f  params %2d  AIC %10.2f  BIC %10.2f"
          % ("margin-closed", fit.loglik, fit.n_params, fit.aic, fit.bic))
    print("  %-14s loglik %10.2f  params %2d  AIC %10.2f  BIC %10.2f"
          % ("unrestricted", bench.loglik, bench.n_params, bench.aic, bench.bic))
    assert (fit.n_params, bench.n_params) == (count_params(config), count_params(one_set))
    better = "margin-closed" if fit.aic <= bench.aic else "unrestricted"
    print("  preferred by AIC: %s" % better)


if __name__ == "__main__":
    main()
