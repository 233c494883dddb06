"""Benchmark workloads: the models, sizes and truth each run uses.

Every input is built from the run's seed: the same seed gives the same
models, config files and replicate series.  The program under test receives
only generated arrays (``fit_model``, ``simulate_model``) and config files
(the ``construct`` and ``verify`` commands).

Each workload drives the same four operations (construct, verify, simulate,
fit) so that every end-to-end metric is measured on every workload; what
differs is the model behind each operation:

* ``paper_k2`` -- the paper's bivariate order-2 skew-t example (the
  recovery criterion's truth), fitted through stages 1-3 at T=2000.
* ``mixed_k1_stage4`` -- partition {0,1},{2} with label 1 and Gaussian
  margins, fitted with the joint stage 4 at T=1000.
* ``scale_k3_d19`` -- partition sizes (5,6,8) at order 3: construct, verify
  and simulate (T=100,000) a 19-variable model; its fit is a fixed bivariate
  order-3 model at T=2000, since stage 2 cannot fit sub-processes of that
  size.

The fitted models of the last two workloads have margin scales of 0.2 or
less, so every reported log-likelihood is positive and a relative bound on it
reads the usual way.
"""

from dataclasses import dataclass

import numpy as np

from mcvar.closure import CrossFixedBlock, Partition, SubprocessCorr, fixed_lag_for_labels
from mcvar.estimation import Model, ModelConfig, construct_model
from mcvar.margins import MarginSpec
from oracles import random_subprocess_corr


@dataclass(frozen=True)
class Workload:
    """One workload as built for one seed.

    ``sim_model`` is the model ``construct`` builds from its config file
    and the timed simulate operation draws from, at ``sim_T``;
    ``fit_truth`` generates the replicates that ``fit_model`` fits with
    ``fit_config`` at ``fit_T``.  When both models and lengths agree, the
    simulated series is the fit's replicate.
    """

    name: str
    sim_model: Model
    sim_T: int
    fit_truth: Model
    fit_config: ModelConfig
    fit_T: int
    stage4: bool
    recovery_tol: float

    def params(self):
        """Plain-data description of the workload, for the run record."""
        return {
            "cli_model": _shape(self.sim_model),
            "sim_T": self.sim_T,
            "fit_model": _shape(self.fit_truth),
            "fit_truth": [float(v) for v in dependence_params(self.fit_truth)],
            "fit_T": self.fit_T,
            "stage4": self.stage4,
            "recovery_tol": self.recovery_tol,
        }


def _shape(model):
    return {
        "partition": [list(s) for s in model.partition.sets],
        "labels": list(model.labels),
        "k": model.k,
        "margins": [m.to_dict() for m in model.margins],
    }


def dependence_params(model):
    """Every free dependence parameter: per sub-process the lag-0 lower
    triangle and the lag-1..k blocks, then each pair's fixed cross block."""
    parts = []
    for sub in model.subs:
        ii, jj = np.tril_indices(sub.dim, -1)
        parts.append(sub.blocks[0][ii, jj])
        parts.extend(b.ravel() for b in sub.blocks[1:])
    for cross in model.crosses:
        i, j = cross.pair
        lag = fixed_lag_for_labels((model.labels[i], model.labels[j]), model.k)
        parts.append(cross.block(lag).ravel())
    return np.concatenate(parts)


def config_doc(model):
    """The ``mcvar-config/1`` document that ``construct`` turns back into ``model``."""
    fixed = []
    for cross in model.crosses:
        i, j = cross.pair
        lag = fixed_lag_for_labels((model.labels[i], model.labels[j]), model.k)
        fixed.append({"pair": [i, j], "lag": lag, "value": cross.block(lag).tolist()})
    return {
        "format": "mcvar-config/1",
        "partition": [list(s) for s in model.partition.sets],
        "labels": list(model.labels),
        "k": model.k,
        "margins": [m.to_dict() for m in model.margins],
        "subprocess_corrs": [{"blocks": [b.tolist() for b in s.blocks]} for s in model.subs],
        "cross_fixed": fixed,
    }


def _scalar_sub(values):
    return SubprocessCorr(blocks=tuple(np.array([[v]]) for v in values))


def _build(partition_sizes, labels, k, margins, subs, fixed_values):
    sets, start = [], 0
    for size in partition_sizes:
        sets.append(tuple(range(start, start + size)))
        start += size
    part = Partition(sets=tuple(sets), d=start)
    fixed = []
    n = len(sets)
    for i in range(n):
        for j in range(i + 1, n):
            lag = fixed_lag_for_labels((labels[i], labels[j]), k)
            fixed.append(CrossFixedBlock((i, j), lag, fixed_values[(i, j)]))
    return construct_model(part, labels, k, margins, subs, fixed)


def _config(model):
    return ModelConfig(
        partition=model.partition,
        labels=model.labels,
        k=model.k,
        margin_families=tuple(m.family for m in model.margins),
    )


def paper_k2(seed):
    truth = _build(
        (1, 1), (2, 2), 2,
        (MarginSpec("skewt", (0.850, 0.791, 5.739, 9.344)),
         MarginSpec("skewt", (-0.032, 0.172, 3.053, 2.738))),
        [_scalar_sub([1.0, -0.8, 0.6]), _scalar_sub([1.0, 0.6, 0.5])],
        {(0, 1): [[0.35]]},
    )
    return Workload(
        name="paper_k2",
        sim_model=truth, sim_T=2000,
        fit_truth=truth, fit_config=_config(truth), fit_T=2000, stage4=False,
        recovery_tol=0.05,
    )


def mixed_k1_stage4(seed):
    truth = _build(
        (2, 1), (1, 1), 1,
        (MarginSpec("gaussian", (0.0, 0.1)), MarginSpec("gaussian", (0.5, 0.2)),
         MarginSpec("gaussian", (-0.2, 0.05))),
        [SubprocessCorr(blocks=(np.array([[1.0, 0.3], [0.3, 1.0]]),
                                np.array([[0.5, 0.1], [0.0, 0.4]]))),
         _scalar_sub([1.0, 0.5])],
        {(0, 1): [[0.3], [0.2]]},
    )
    return Workload(
        name="mixed_k1_stage4",
        sim_model=truth, sim_T=1000,
        fit_truth=truth, fit_config=_config(truth), fit_T=1000, stage4=True,
        recovery_tol=0.10,
    )


def scale_k3_d19(seed):
    rng = np.random.default_rng(seed)
    sizes = (5, 6, 8)
    subs = [random_subprocess_corr(rng, d, 3, radius=0.5) for d in sizes]
    fixed = {(i, j): 0.02 * rng.uniform(-1.0, 1.0, (sizes[i], sizes[j]))
             for i in range(3) for j in range(i + 1, 3)}
    margins = tuple(MarginSpec("skewt", (0.0, 1.0, 3.0, 5.0)) if v % 2 == 0
                    else MarginSpec("gaussian", (0.0, 1.0)) for v in range(sum(sizes)))
    big = _build(sizes, (2, 2, 2), 3, margins, subs, fixed)
    # Fixed, so that fit times differ between seeds only through the data.
    pair = _build(
        (1, 1), (2, 2), 3,
        (MarginSpec("skewt", (0.0, 0.1, 3.0, 5.0)), MarginSpec("gaussian", (0.0, 0.1))),
        [_scalar_sub([1.0, 0.5, 0.25, 0.125]), _scalar_sub([1.0, -0.4, 0.16, -0.064])],
        {(0, 1): [[0.3]]},
    )
    return Workload(
        name="scale_k3_d19",
        sim_model=big, sim_T=100_000,
        fit_truth=pair, fit_config=_config(pair), fit_T=2000, stage4=False,
        recovery_tol=0.10,
    )


BUILDERS = {f.__name__: f for f in (paper_k2, mixed_k1_stage4, scale_k3_d19)}


def build(name, seed):
    return BUILDERS[name](seed)
