"""Command line front end.

Subcommands: construct, verify, simulate, fit, compare, tables.  Configs and
models are versioned JSON documents (format tags ``mcvar-config/1`` and
``mcvar-model/1``); data moves as header-row CSV with '.' decimal separator.

Exit codes: 0 success, 1 validation error, 2 numerical infeasibility
(positive definiteness), 3 tolerance failure in ``tables``.
"""

import argparse
import csv
import json
import sys
from dataclasses import dataclass

import numpy as np

from .closure import (
    CrossFixedBlock,
    CrossSolution,
    DegenerateCrossPair,
    Partition,
    SubprocessCorr,
    assemble_full_R,
    coefficient_block_zeros,
    fixed_lag_for_labels,
    reorder_time_major,
    solve_cross_pair,
    verify_closure,
)
from .estimation import (
    Model,
    ModelConfig,
    construct_model,
    fit_model,
    fit_unrestricted,
    loglik_full,
    portmanteau,
    simulate_model,
)
from .linalg import is_positive_definite
from .margins import MarginSpec, pit_to_normal
from .varprocess import (
    VarRepresentation,
    implied_autocov,
    residuals,
    simulate,
)

CONFIG_FORMAT = "mcvar-config/1"
MODEL_FORMAT = "mcvar-model/1"


class CliError(Exception):
    """Validation problem in user input; maps to exit code 1."""


class InfeasibleError(Exception):
    """Numerical infeasibility (positive definiteness); maps to exit code 2."""


# -- data ingestion ----------------------------------------------------------

@dataclass(frozen=True)
class Dataset:
    names: tuple
    values: np.ndarray  # d x T


def load_csv(path, columns=None):
    """Read a header-row CSV into a Dataset.

    ``columns`` selects by header name or zero-based index; default all.
    Missing or non-numeric cells are rejected with their row and column.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise CliError("%s: empty file" % path) from None
            header = [h.strip() for h in header]
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if not row or all(c.strip() == "" for c in row):
                    continue
                if len(row) != len(header):
                    raise CliError(
                        "%s: line %d has %d fields, expected %d"
                        % (path, lineno, len(row), len(header))
                    )
                rows.append((lineno, row))
    except OSError as exc:
        raise CliError("cannot read %s: %s" % (path, exc)) from exc
    if not rows:
        raise CliError("%s: no data rows" % path)

    if columns is None:
        sel = list(range(len(header)))
    else:
        sel = []
        for c in columns:
            if isinstance(c, int) or (isinstance(c, str) and c.lstrip("-").isdigit()):
                idx = int(c)
                if not 0 <= idx < len(header):
                    raise CliError("column index %d out of range (file has %d columns)"
                                   % (idx, len(header)))
            else:
                if c not in header:
                    raise CliError("column %r not found; file has %s" % (c, header))
                idx = header.index(c)
            sel.append(idx)

    names = tuple(header[i] for i in sel)
    out = np.empty((len(sel), len(rows)))
    for t, (lineno, row) in enumerate(rows):
        for v, i in enumerate(sel):
            cell = row[i].strip()
            if cell == "" or cell.upper() in ("NA", "NAN", "NULL"):
                raise CliError(
                    "missing value at line %d, column %r" % (lineno, header[i])
                )
            try:
                out[v, t] = float(cell)
            except ValueError:
                raise CliError(
                    "parse error at line %d, column %r: %r is not a number"
                    % (lineno, header[i], cell)
                ) from None
    return Dataset(names=names, values=out)


def transform(series, spec):
    """Log-difference transform of one series.

    ``spec`` carries ``log_diff`` (order m in {0, 1, 2}) and
    ``scale_percent``; the output is 100 x the m-th difference of the natural
    log when both are set, and has length T - m.
    """
    x = np.asarray(series, dtype=float)
    m = int(spec.get("log_diff", 0))
    if m not in (0, 1, 2):
        raise CliError("log_diff order must be 0, 1, or 2, got %r" % m)
    if m > 0:
        if np.any(x <= 0.0):
            bad = int(np.argmax(x <= 0.0))
            raise CliError(
                "log transform needs positive values; found %g at position %d"
                % (x[bad], bad)
            )
        x = np.diff(np.log(x), n=m)
    if spec.get("scale_percent", False):
        x = 100.0 * x
    return x


# -- config / model files ----------------------------------------------------

def _load_json(path, expect_format):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CliError("cannot read %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise CliError("%s: invalid JSON: %s" % (path, exc)) from exc
    fmt = doc.get("format")
    if fmt not in expect_format:
        raise CliError(
            "%s: format tag %r, expected one of %s" % (path, fmt, sorted(expect_format))
        )
    return doc


def _dump_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _parse_partition(doc):
    sets = tuple(tuple(int(v) for v in s) for s in doc["partition"])
    d = sum(len(s) for s in sets)
    return Partition(sets=sets, d=d)


def _parse_margins(doc, d):
    if "margins" in doc:
        margins = tuple(MarginSpec.from_dict(m) for m in doc["margins"])
    elif "margin_families" in doc:
        margins = None
    else:
        raise CliError("config needs 'margins' or 'margin_families'")
    if margins is not None and len(margins) != d:
        raise CliError("need %d margins, got %d" % (d, len(margins)))
    return margins


def _margin_families(doc, d):
    if "margin_families" in doc:
        fams = tuple(doc["margin_families"])
    elif "margins" in doc:
        fams = tuple(m["family"] for m in doc["margins"])
    else:
        raise CliError("config needs 'margins' or 'margin_families'")
    if len(fams) != d:
        raise CliError("need %d margin families, got %d" % (d, len(fams)))
    return fams


def model_file_dict(model, names=None, fit_info=None):
    doc = {"format": MODEL_FORMAT}
    doc.update(model.to_dict())
    if names:
        doc["names"] = list(names)
    var = model.var()
    doc["var"] = {
        "phi": [p.tolist() for p in var.phi],
        "sigma": var.sigma.tolist(),
    }
    if fit_info:
        doc["fit"] = fit_info
    return doc


def load_model_file(path):
    """Load a model file; returns (model, doc).

    Files carrying sub-process blocks load as full models.  Files carrying
    only a ``var`` entry (coefficients plus innovation covariance) load as
    ``(None, doc)``; verify can still score them through the implied
    autocovariances.
    """
    doc = _load_json(path, {MODEL_FORMAT})
    if "subprocess_corrs" in doc and "crosses" in doc:
        return Model.from_dict(doc), doc
    if "var" in doc:
        return None, doc
    raise CliError("%s: neither sub-process blocks nor a var entry" % path)


def _var_from_doc(doc):
    phi = tuple(np.asarray(p, dtype=float) for p in doc["var"]["phi"])
    sigma = np.asarray(doc["var"]["sigma"], dtype=float)
    return VarRepresentation(phi=phi, sigma=sigma)


def _time_major_from_var(var, k):
    """Correlation matrix of (Z_t, ..., Z_{t-k}) implied by a VAR."""
    gams = implied_autocov(var, k)
    scale = 1.0 / np.sqrt(np.diag(gams[0]))
    norm = [g * np.outer(scale, scale) for g in gams]

    def sl(l):
        return norm[l] if l >= 0 else norm[-l].T

    return np.block([[sl(s - r) for s in range(k + 1)] for r in range(k + 1)])


# -- output helpers -----------------------------------------------------------

def _fmt_matrix(m, nd=3):
    m = np.atleast_2d(np.asarray(m, dtype=float))
    return [" ".join("% 9.*f" % (nd, v) for v in row) for row in m]


def _print_block(label, m, nd=3):
    lines = _fmt_matrix(m, nd)
    pad = " " * (len(label) + 2)
    print("%s  %s" % (label, lines[0]))
    for ln in lines[1:]:
        print(pad + ln)


def _print_side_by_side(label, computed, reference, nd=3):
    comp = _fmt_matrix(computed, nd)
    ref = _fmt_matrix(reference, nd)
    pad = " " * (len(label) + 2)
    for i, (c, r) in enumerate(zip(comp, ref)):
        lead = "%s  " % label if i == 0 else pad
        mid = "| ref " if i == 0 else "|     "
        print("%s%s  %s%s" % (lead, c, mid, r))


# -- construct ----------------------------------------------------------------

def _build_from_config(doc):
    part = _parse_partition(doc)
    labels = tuple(int(c) for c in doc["labels"])
    k = int(doc["k"])
    margins = _parse_margins(doc, part.d)
    if margins is None:
        raise CliError("construct needs fully specified 'margins'")
    if len(labels) != part.n:
        raise CliError("need %d labels, got %d" % (part.n, len(labels)))
    subs = []
    for i, e in enumerate(doc["subprocess_corrs"]):
        blocks = tuple(np.asarray(b, dtype=float) for b in e["blocks"])
        if len(blocks) != k + 1:
            raise CliError("sub-process %d needs %d lag blocks, got %d"
                           % (i, k + 1, len(blocks)))
        try:
            sub = SubprocessCorr(blocks=blocks)
        except ValueError as exc:
            raise CliError("sub-process %d: %s" % (i, exc)) from exc
        if sub.dim != len(part.sets[i]):
            raise CliError("sub-process %d blocks are %dx%d but the index set has %d entries"
                           % (i, sub.dim, sub.dim, len(part.sets[i])))
        if not sub.is_pd():
            raise InfeasibleError(
                "sub-process %d correlation structure is not positive definite" % i
            )
        subs.append(sub)
    fixed = []
    for e in doc["cross_fixed"]:
        fixed.append(
            CrossFixedBlock(
                pair=tuple(int(v) for v in e["pair"]),
                lag=int(e["lag"]),
                value=np.asarray(e["value"], dtype=float),
            )
        )
    try:
        model = construct_model(part, labels, k, margins, tuple(subs), fixed)
    except DegenerateCrossPair:
        raise
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    # locate infeasibility pair by pair before blaming the full matrix
    for c in model.crosses:
        i, j = c.pair
        di = subs[i].dim
        pair_part = Partition(
            sets=(tuple(range(di)), tuple(range(di, di + subs[j].dim))),
            d=di + subs[j].dim,
        )
        pair_sol = CrossSolution(pair=(0, 1), order=k, blocks=c.blocks)
        r_pair = assemble_full_R(pair_part, (subs[i], subs[j]), [pair_sol])
        if not is_positive_definite(reorder_time_major(r_pair, pair_part, k)):
            raise InfeasibleError(
                "pair (%d, %d): fixed cross block makes the pair's joint "
                "correlation matrix non positive definite" % (i, j)
            )
    r = model.time_major_R()
    if not is_positive_definite(r):
        raise InfeasibleError(
            "assembled correlation matrix is not positive definite "
            "(each pair is; the full set jointly is not)"
        )
    return model, doc.get("names")


def cmd_construct(args):
    doc = _load_json(args.config, {CONFIG_FORMAT})
    model, names = _build_from_config(doc)
    r = model.time_major_R()
    var = model.var()
    print("margin-closed model: d=%d, k=%d, %d sub-processes"
          % (model.partition.d, model.k, model.partition.n))
    print("labels:", list(model.labels))
    for m, p in enumerate(var.phi):
        _print_block("Phi_%d" % (m + 1), p)
    _print_block("Sigma_eps", var.sigma)
    print("positive definite: yes")
    report = verify_closure(r, model.partition, model.k, tol=args.tol)
    print(report)
    if not report.all_pass:
        raise InfeasibleError("constructed model fails closure verification")
    out = args.out or "mcvar_model.json"
    out_doc = model_file_dict(model, names=names)
    if "seed" in doc:
        out_doc["seed"] = int(doc["seed"])  # default seed for later simulate calls
    _dump_json(out, out_doc)
    print("model written to %s" % out)
    return 0


# -- verify --------------------------------------------------------------------

def cmd_verify(args):
    model, doc = load_model_file(args.config)
    part = _parse_partition(doc)
    k = int(doc["k"])
    if model is not None:
        r = model.time_major_R()
    else:
        var = _var_from_doc(doc)
        r = _time_major_from_var(var, k)
    if not is_positive_definite(r):
        raise InfeasibleError("model correlation matrix is not positive definite")
    report = verify_closure(r, part, k, tol=args.tol)
    print(report)
    ok = report.all_pass
    if "labels" in doc and model is not None:
        var = model.var()
        zeros_ok = coefficient_block_zeros(
            tuple(int(c) for c in doc["labels"]), var, part, tol=max(args.tol, 1e-8)
        )
        print("condition-1 coefficient blocks vanish: %s" % ("yes" if zeros_ok else "no"))
        ok = ok and zeros_ok
    print("verification %s" % ("PASSED" if ok else "FAILED"))
    return 0 if ok else 1


# -- simulate -------------------------------------------------------------------

def cmd_simulate(args):
    model, doc = load_model_file(args.config)
    seed = args.seed if args.seed is not None else int(doc.get("seed", 0))
    T = args.length
    if T is None:
        raise CliError("simulate needs --length")
    if model is not None:
        x = simulate_model(model, T, seed)
        names = doc.get("names") or ["x%d" % i for i in range(x.shape[0])]
    else:
        var = _var_from_doc(doc)
        x = simulate(var, T, seed)
        names = doc.get("names") or ["z%d" % i for i in range(x.shape[0])]
    out = args.out or "mcvar_sim.csv"
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(names)
        for t in range(x.shape[1]):
            w.writerow([repr(float(v)) for v in x[:, t]])
    print("wrote %d rows x %d columns to %s (seed %d)" % (x.shape[1], x.shape[0], out, seed))
    return 0


# -- fit -------------------------------------------------------------------------

def _dataset_from_args(args, doc):
    if not args.data:
        raise CliError("this subcommand needs --data CSV")
    ds = load_csv(args.data, doc.get("columns"))
    specs = doc.get("transform")
    if specs:
        if len(specs) != ds.values.shape[0]:
            raise CliError("need one transform spec per selected column")
        cols = [transform(ds.values[i], s or {}) for i, s in enumerate(specs)]
        tmin = min(len(c) for c in cols)
        vals = np.vstack([c[len(c) - tmin:] for c in cols])
        ds = Dataset(names=ds.names, values=vals)
    return ds


def _print_fit(fm, names):
    for i, mf in enumerate(fm.margin_fits):
        p = ", ".join("%.4f" % v for v in mf.spec.params)
        print("margin %-12s %-8s (%s)  loglik %.3f"
              % (names[i], mf.spec.family, p, mf.loglik))
    for sf in fm.sub_fits:
        print("sub-process %s: latent loglik %.3f" % (list(sf.indices), sf.loglik))
    print("stage 3 latent loglik: %.3f" % fm.stage_logliks["stage3"])
    if "stage4" in fm.stage_logliks:
        print("stage 4 latent loglik: %.3f" % fm.stage_logliks["stage4"])
    print("loglik %.4f  params %d  AIC %.4f  BIC %.4f"
          % (fm.loglik, fm.n_params, fm.aic, fm.bic))
    if not fm.converged:
        print("warning: at least one optimizer stage did not converge", file=sys.stderr)


def cmd_fit(args):
    doc = _load_json(args.config, {CONFIG_FORMAT})
    ds = _dataset_from_args(args, doc)
    part = _parse_partition(doc)
    k = args.k if args.k is not None else int(doc["k"])
    fams = _margin_families(doc, part.d)
    config = ModelConfig(
        partition=part,
        labels=tuple(int(c) for c in doc["labels"]),
        k=k,
        margin_families=fams,
    )
    if ds.values.shape[0] != part.d:
        raise CliError("data has %d columns, config expects %d" % (ds.values.shape[0], part.d))
    stage4 = args.stage4 or bool(doc.get("stage4", False))
    fm = fit_model(ds.values, config, stage4=stage4)
    _print_fit(fm, ds.names)

    z = np.vstack([
        pit_to_normal(ds.values[i], fm.model.margins[i]) for i in range(part.d)
    ])
    e = residuals(z, fm.model.var())
    max_lag = min(10, e.shape[1] - 1)
    if max_lag > k:
        pm = portmanteau(e, max_lag, k)
        print("portmanteau (m=%d): Q %.3f  df %d  p %.4f"
              % (max_lag, pm.statistic, pm.df, pm.pvalue))
    out = args.out or "mcvar_fitted.json"
    fit_info = {
        "loglik": fm.loglik,
        "n_params": fm.n_params,
        "aic": fm.aic,
        "bic": fm.bic,
        "T": int(ds.values.shape[1]),
        "stage4": stage4,
    }
    _dump_json(out, model_file_dict(fm.model, names=ds.names, fit_info=fit_info))
    print("fitted model written to %s" % out)
    return 0


# -- compare ----------------------------------------------------------------------

def _fit_config_doc(doc, ds, args):
    part = _parse_partition(doc) if "partition" in doc else Partition(
        sets=(tuple(range(ds.values.shape[0])),), d=ds.values.shape[0]
    )
    k = args.k if args.k is not None else int(doc["k"])
    fams = _margin_families(doc, ds.values.shape[0])
    if doc.get("kind", "margin-closed") == "unrestricted":
        # the one-sub-process fit; stage 4 does not apply to the benchmark
        kind, fm = "unrestricted", fit_unrestricted(ds.values, fams, k)
    else:
        config = ModelConfig(
            partition=part,
            labels=tuple(int(c) for c in doc["labels"]),
            k=k,
            margin_families=fams,
        )
        stage4 = args.stage4 or bool(doc.get("stage4", False))
        kind, fm = "margin-closed", fit_model(ds.values, config, stage4=stage4)
    return {
        "kind": kind, "k": k,
        "loglik": fm.loglik, "n_params": fm.n_params,
        "aic": fm.aic, "bic": fm.bic,
    }


def cmd_compare(args):
    if not args.config or len(args.config) != 2:
        raise CliError("compare needs exactly two --config files")
    doc_a = _load_json(args.config[0], {CONFIG_FORMAT})
    doc_b = _load_json(args.config[1], {CONFIG_FORMAT})
    ds = _dataset_from_args(args, doc_a)
    rows = [
        dict(name=args.config[0], **_fit_config_doc(doc_a, ds, args)),
        dict(name=args.config[1], **_fit_config_doc(doc_b, ds, args)),
    ]
    print("%-28s %-14s %3s %10s %5s %12s %12s"
          % ("config", "kind", "k", "loglik", "par", "AIC", "BIC"))
    for r in rows:
        print("%-28s %-14s %3d %10.3f %5d %12.3f %12.3f"
              % (r["name"], r["kind"], r["k"], r["loglik"], r["n_params"],
                 r["aic"], r["bic"]))
    best = min(rows, key=lambda r: r["aic"])
    print("preferred by AIC: %s (%s)" % (best["name"], best["kind"]))
    out = args.out or "mcvar_compare.json"
    _dump_json(out, {"rows": rows, "preferred_by_aic": best["name"]})
    print("comparison written to %s" % out)
    return 0


# -- tables -------------------------------------------------------------------------

# printed reference values (3 decimals) for the two-sub-process worked example
# with rho_1 = (1, -0.8, 0.6), rho_2 = (1, 0.6, 0.5), k = 2
_T1_REFERENCE = {
    (1, 1): {
        "fixed": 0.35,
        "phi1": [[-0.889, 0.0], [0.0, 0.469]],
        "phi2": [[-0.111, 0.0], [0.0, 0.219]],
        "sigma": [[0.356, 0.447], [0.447, 0.609]],
    },
    (1, 2): {
        "fixed": 0.35,
        "phi1": [[-0.889, 0.0], [0.778, 0.469]],
        "phi2": [[-0.111, 0.0], [0.972, 0.219]],
        "sigma": [[0.356, 0.039], [0.039, 0.269]],
    },
    (2, 1): {
        "fixed": 0.35,
        "phi1": [[-0.889, -0.328], [0.0, 0.469]],
        "phi2": [[-0.111, 0.547], [0.0, 0.219]],
        "sigma": [[0.164, -0.077], [-0.077, 0.609]],
    },
    (2, 2): {
        "fixed": 0.35,
        "phi1": [[-0.716, 0.656], [-1.184, 0.296]],
        "phi2": [[0.353, -0.330], [-0.863, 0.736]],
        "sigma": [[0.194, -0.196], [-0.196, 0.287]],
    },
}

# fixed cross values chosen so every case's innovation correlation lands near
# 0.8, with the resulting coefficients and innovation correlations
_T3_REFERENCE = {
    (1, 1): {
        "fixed": 0.292,
        "phi1": [[-0.889, 0.0], [0.0, 0.469]],
        "phi2": [[-0.111, 0.0], [0.0, 0.219]],
        "innov_corr": 0.801,
    },
    (1, 2): {
        "fixed": 0.464,
        "phi1": [[-0.889, 0.0], [1.031, 0.469]],
        "phi2": [[-0.111, 0.0], [1.289, 0.219]],
        "innov_corr": 0.812,
    },
    (2, 1): {
        "fixed": -0.459,
        "phi1": [[-0.889, 0.430], [0.0, 0.469]],
        "phi2": [[-0.111, -0.717], [0.0, 0.219]],
        "innov_corr": 0.792,
    },
    (2, 2): {
        "fixed": -0.346,
        "phi1": [[-0.787, -0.590], [1.080, 0.367]],
        "phi2": [[0.243, 0.246], [0.721, 0.630]],
        "innov_corr": 0.797,
    },
}

_WORKED_SUBS = (
    ((1.0,), (-0.8,), (0.6,)),
    ((1.0,), (0.6,), (0.5,)),
)


def _worked_example_model(labels, fixed_value):
    r1 = SubprocessCorr(blocks=tuple(np.array([[v[0]]]) for v in _WORKED_SUBS[0]))
    r2 = SubprocessCorr(blocks=tuple(np.array([[v[0]]]) for v in _WORKED_SUBS[1]))
    lag = fixed_lag_for_labels(labels, 2)
    fb = CrossFixedBlock(pair=(0, 1), lag=lag, value=[[fixed_value]])
    part = Partition(sets=((0,), (1,)), d=2)
    margins = (MarginSpec("gaussian", (0.0, 1.0)), MarginSpec("gaussian", (0.0, 1.0)))
    return construct_model(part, labels, 2, margins, (r1, r2), [fb])


def _table_t1(tol):
    dev = 0.0
    cases = []
    for labels, ref in _T1_REFERENCE.items():
        model = _worked_example_model(labels, ref["fixed"])
        var = model.var()
        print("labels %s  fixed cross value %.3f (lag %d)"
              % (list(labels), ref["fixed"], _fixed_lag_print(labels)))
        _print_side_by_side("  Phi_1    ", var.phi[0], ref["phi1"])
        _print_side_by_side("  Phi_2    ", var.phi[1], ref["phi2"])
        _print_side_by_side("  Sigma_eps", var.sigma, ref["sigma"])
        case_dev = max(
            float(np.max(np.abs(var.phi[0] - np.array(ref["phi1"])))),
            float(np.max(np.abs(var.phi[1] - np.array(ref["phi2"])))),
            float(np.max(np.abs(var.sigma - np.array(ref["sigma"])))),
        )
        print("  max |deviation| = %.2e" % case_dev)
        dev = max(dev, case_dev)
        cases.append({
            "labels": list(labels),
            "phi1": var.phi[0].tolist(),
            "phi2": var.phi[1].tolist(),
            "sigma": var.sigma.tolist(),
            "max_abs_deviation": case_dev,
        })
    return dev, {"cases": cases}


def _fixed_lag_print(labels):
    return fixed_lag_for_labels(labels, 2)


def _table_t2t3(tol):
    dev = 0.0
    cases = []
    for labels, ref in _T3_REFERENCE.items():
        model = _worked_example_model(labels, ref["fixed"])
        var = model.var()
        s = var.sigma
        ic = float(s[0, 1] / np.sqrt(s[0, 0] * s[1, 1]))
        print("labels %s  fixed cross value %.3f (lag %d)"
              % (list(labels), ref["fixed"], _fixed_lag_print(labels)))
        _print_side_by_side("  Phi_1", var.phi[0], ref["phi1"])
        _print_side_by_side("  Phi_2", var.phi[1], ref["phi2"])
        print("  innovation correlation  % .3f | ref % .3f" % (ic, ref["innov_corr"]))
        case_dev = max(
            float(np.max(np.abs(var.phi[0] - np.array(ref["phi1"])))),
            float(np.max(np.abs(var.phi[1] - np.array(ref["phi2"])))),
            abs(ic - ref["innov_corr"]),
        )
        in_band = 0.79 <= ic <= 0.82
        print("  max |deviation| = %.2e  innovation correlation in [0.79, 0.82]: %s"
              % (case_dev, "yes" if in_band else "no"))
        if not in_band:
            case_dev = max(case_dev, 1.0)
        dev = max(dev, case_dev)
        cases.append({
            "labels": list(labels),
            "fixed": ref["fixed"],
            "phi1": var.phi[0].tolist(),
            "phi2": var.phi[1].tolist(),
            "innov_corr": ic,
            "max_abs_deviation": case_dev,
        })
    return dev, {"cases": cases}


def _pair_model_k1(rho1, rho2, labels, cross0):
    r1 = SubprocessCorr(blocks=(np.eye(1), np.array([[rho1]])))
    r2 = SubprocessCorr(blocks=(np.eye(1), np.array([[rho2]])))
    sol = solve_cross_pair(r1, r2, labels, CrossFixedBlock(pair=(0, 1), lag=0, value=[[cross0]]))
    return r1, r2, sol


def _table_example1(tol):
    """Closed-form check of the solved lag blocks for two scalar AR(1) subs."""
    grid = np.linspace(-0.9, 0.9, 13)
    dev = 0.0
    rows = []
    for rho1, rho2 in ((0.9, 0.9), (0.9, -0.9), (0.5, -0.7)):
        for c0 in grid:
            _, _, sol1 = _pair_model_k1(rho1, rho2, (1, 1), c0)
            _, _, sol2 = _pair_model_k1(rho1, rho2, (2, 2), c0)
            # both-1: lag +1 follows sub 1, lag -1 follows sub 2
            d11 = max(abs(sol1.block(1)[0, 0] - rho1 * c0),
                      abs(sol1.block(-1)[0, 0] - rho2 * c0))
            # both-2: mirrored
            d22 = max(abs(sol2.block(-1)[0, 0] - rho1 * c0),
                      abs(sol2.block(1)[0, 0] - rho2 * c0))
            dev = max(dev, d11, d22)
        rows.append({"rho1": rho1, "rho2": rho2, "max_abs_deviation": dev})
        print("rho_{11,1}=% .2f rho_{22,1}=% .2f: solved lag blocks match "
              "closed forms to %.2e over %d grid points" % (rho1, rho2, dev, grid.size))
    print("closed forms: both-1 labels give (rho_{12,1}, rho_{12,-1}) = "
          "(rho_{11,1}, rho_{22,1}) x rho_{12,0}; both-2 labels mirror them")
    return dev, {"rows": rows}


def _table_example3(tol):
    rhos = (0.6, 0.7, 0.8)
    subs = tuple(SubprocessCorr(blocks=(np.eye(1), np.array([[r]]))) for r in rhos)
    part = Partition(sets=((0,), (1,), (2,)), d=3)
    labels = (2, 2, 2)
    margins = tuple(MarginSpec("gaussian", (0.0, 1.0)) for _ in range(3))
    fixed = [
        CrossFixedBlock(pair=p, lag=0, value=[[0.5]])
        for p in ((0, 1), (0, 2), (1, 2))
    ]
    model = construct_model(part, labels, 1, margins, subs, fixed)
    r = model.time_major_R()
    pd_ok = is_positive_definite(r)
    print("three scalar AR(1) sub-processes, lag-1 correlations %s," % (list(rhos),))
    print("all contemporaneous cross correlations 0.5, labels (2, 2, 2)")
    _print_block("R (time-major)", r)
    print("positive definite: %s" % ("yes" if pd_ok else "no"))
    if not pd_ok:
        return 1.0, {"positive_definite": False}
    report = verify_closure(r, part, 1, tol=1e-8)
    print(report)
    worst = max(min(s.cond1_residual, s.cond2_residual) for s in report.subs)
    ok = pd_ok and report.all_pass
    return (0.0 if ok else 1.0) + worst, {
        "positive_definite": pd_ok,
        "closure_pass": report.all_pass,
        "worst_residual": worst,
        "R": r.tolist(),
    }


def _table_pdregion(tol):
    grid = np.round(np.arange(-0.99, 0.995, 0.01), 2)

    def scan(rho1, rho2):
        part = Partition(sets=((0,), (1,)), d=2)
        flags = []
        for c0 in grid:
            _, _, sol = _pair_model_k1(rho1, rho2, (2, 2), c0)
            r1 = SubprocessCorr(blocks=(np.eye(1), np.array([[rho1]])))
            r2 = SubprocessCorr(blocks=(np.eye(1), np.array([[rho2]])))
            r = reorder_time_major(assemble_full_R(part, (r1, r2), [sol]), part, 1)
            flags.append(is_positive_definite(r))
        return np.array(flags)

    ok_all = scan(0.9, 0.9)
    print("rho_{11,1}=0.9, rho_{22,1}=0.9: positive definite at %d / %d grid points"
          % (int(ok_all.sum()), grid.size))
    mixed = scan(0.9, -0.9)
    inside = grid > 0.151  # open interval; the 0.15 boundary point is left out
    n_bad = int(np.sum(~mixed[inside]))
    print("rho_{11,1}=0.9, rho_{22,1}=-0.9: non positive definite at %d / %d "
          "grid points with rho_{12,0} > 0.15" % (n_bad, int(inside.sum())))
    pd_vals = grid[mixed]
    if pd_vals.size:
        print("  largest positive definite grid point: %.2f" % pd_vals.max())
    expect = bool(ok_all.all()) and bool((~mixed[inside]).all())
    dev = 0.0 if expect else 1.0
    return dev, {
        "grid_step": 0.01,
        "same_sign_all_pd": bool(ok_all.all()),
        "mixed_sign_all_non_pd_above_0.15": bool((~mixed[inside]).all()),
    }


_TABLES = {
    "t1": (_table_t1, 1e-3),
    "t2t3": (_table_t2t3, 1e-3),
    "example1": (_table_example1, 1e-10),
    "example3": (_table_example3, 1e-8),
    "pdregion": (_table_pdregion, 0.5),
}


def cmd_tables(args):
    if args.name not in _TABLES:
        raise CliError("unknown table %r; choose from %s" % (args.name, sorted(_TABLES)))
    fn, default_tol = _TABLES[args.name]
    tol = args.tol if args.tol is not None else default_tol
    dev, payload = fn(tol)
    passed = dev <= tol
    print("table %s: max |deviation| %.3e, tolerance %.1e -> %s"
          % (args.name, dev, tol, "PASS" if passed else "FAIL"))
    out = args.out or ("mcvar_tables_%s.json" % args.name)
    _dump_json(out, {
        "table": args.name,
        "max_abs_deviation": dev,
        "tol": tol,
        "passed": passed,
        **payload,
    })
    print("table data written to %s" % out)
    return 0 if passed else 3


# -- entry point ---------------------------------------------------------------------

def _build_parser():
    p = argparse.ArgumentParser(
        prog="mcvar",
        description="Margin-closed Gaussian VAR(k) models: construct, verify, "
                    "simulate, fit, compare, and reproduce reference tables.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, config_action="store"):
        sp.add_argument("--config", action=config_action,
                        help="config or model JSON file")
        sp.add_argument("--data", help="CSV data file")
        sp.add_argument("--out", help="output path")
        sp.add_argument("--seed", type=int, default=None, help="RNG seed")
        sp.add_argument("--k", type=int, default=None, help="override model order")
        sp.add_argument("--tol", type=float, default=None, help="tolerance override")
        sp.add_argument("--stage4", action="store_true",
                        help="run the joint refinement stage after stage 3")

    sp = sub.add_parser("construct", help="solve cross blocks and write a model file")
    add_common(sp)
    sp.set_defaults(func=cmd_construct, tol_default=1e-8)

    sp = sub.add_parser("verify", help="check margin closure of a model file")
    add_common(sp)
    sp.set_defaults(func=cmd_verify, tol_default=1e-8)

    sp = sub.add_parser("simulate", help="simulate observations from a model file")
    add_common(sp)
    sp.add_argument("--length", type=int, default=None, help="number of time points")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("fit", help="multi-stage fit of a config to CSV data")
    add_common(sp)
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("compare", help="fit two configs to the same data, report AIC")
    add_common(sp, config_action="append")
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("tables", help="reproduce reference tables and check tolerances")
    sp.add_argument("name", help="one of: %s" % ", ".join(sorted(_TABLES)))
    add_common(sp)
    sp.set_defaults(func=cmd_tables)
    return p


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "tol", None) is None and hasattr(args, "tol_default"):
        args.tol = args.tol_default
    try:
        return args.func(args)
    except DegenerateCrossPair as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    # LinAlgError subclasses ValueError, so it must be handled first
    except np.linalg.LinAlgError as exc:
        print("error: numerical failure: %s" % exc, file=sys.stderr)
        return 2
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (KeyError, ValueError) as exc:
        print("error: invalid input: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
