"""Command line front end.

Subcommands: construct, verify, simulate, fit, compare, tables.  Configs and
models are versioned JSON documents (format tags ``mcvar-config/1`` and
``mcvar-model/1``); data moves as header-row CSV with '.' decimal separator.

Exit codes: 0 success, 1 validation or usage error, 2 numerical
infeasibility (positive definiteness), 3 tolerance failure in ``tables``.
"""

import argparse
import contextlib
import csv
import functools
import itertools
import json
import sys
from dataclasses import dataclass

import numpy as np

from ._document import _blocks, _choice, _flag, _integer, _key, _labels, _list, _name, _object
from .closure import (
    CrossFixedBlock,
    DegenerateCrossPair,
    Partition,
    SubprocessCorr,
    _partition,
    coefficient_block_zeros,
    fixed_lag_for_labels,
    verify_closure,
)
from .estimation import (
    Model,
    ModelConfig,
    construct_model,
    fit_model,
    latent_scores,
    portmanteau,
    simulate_model,
)
from .linalg import is_positive_definite
from .margins import FAMILY_PARAMS, MarginSpec
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

    ``columns`` selects by header name or zero-based index; default all.  A
    string names a header first and is read as an index only when no header
    has that name; an integer is always an index.  A ``columns`` entry that
    selects no column raises ValueError naming it; a refusal of the file's
    contents raises CliError starting with ``path``.
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
        for i, c in enumerate(_list(columns, "columns")):
            if isinstance(c, str) and (c in header or not c.removeprefix("-").isdecimal()):
                if c not in header:
                    raise ValueError("%s: column %r not found; file has %s"
                                     % (_name("columns", i), c, header))
                idx = header.index(c)
            else:
                idx = int(c) if isinstance(c, str) else _integer(c, "columns", i)
                if not 0 <= idx < len(header):
                    raise ValueError("%s: column index %d out of range (file has %d columns)"
                                     % (_name("columns", i), idx, len(header)))
            sel.append(idx)

    names = tuple(header[i] for i in sel)
    out = np.empty((len(sel), len(rows)))
    for t, (lineno, row) in enumerate(rows):
        for v, i in enumerate(sel):
            cell = row[i].strip()
            if cell == "" or cell.upper() in ("NA", "NAN", "NULL"):
                raise CliError(
                    "%s: missing value at line %d, column %r" % (path, lineno, header[i])
                )
            try:
                out[v, t] = float(cell)
            except ValueError:
                raise CliError(
                    "%s: parse error at line %d, column %r: %r is not a number"
                    % (path, lineno, header[i], cell)
                ) from None
            if not np.isfinite(out[v, t]):
                raise CliError(
                    "%s: non-finite value at line %d, column %r: %r"
                    % (path, lineno, header[i], cell)
                )
    return Dataset(names=names, values=out)


def transform(series, spec):
    """Log-difference transform of one series.

    ``spec`` carries ``log_diff`` (order m in {0, 1, 2}) and
    ``scale_percent``; the output is 100 x the m-th difference of the natural
    log when both are set, and has length T - m.
    """
    x = np.asarray(series, dtype=float)
    try:
        m = _log_diff(spec)
        scale = _flag(spec.get("scale_percent", False), "transform scale_percent")
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if m > 0:
        if np.any(x <= 0.0):
            bad = int(np.argmax(x <= 0.0))
            raise CliError(
                "log transform needs positive values; found %g at position %d"
                % (x[bad], bad)
            )
        x = np.diff(np.log(x), n=m)
    if scale:
        x = 100.0 * x
    return x


def _log_diff(spec, i=None):
    """The difference order of a ``transform`` entry (entry i where given): 0, 1 or 2."""
    m = _integer(_object(spec, "transform", i).get("log_diff", 0), "transform log_diff", i)
    return _choice(m, "transform log_diff", (0, 1, 2), "be a difference order", i)


# -- config / model files ----------------------------------------------------

@contextlib.contextmanager
def _document_errors(path):
    """Exit 1 naming ``path`` for a ValueError raised inside, where a field of the document
    at ``path`` is read; a LinAlgError, DegenerateCrossPair included, keeps exit 2."""
    try:
        yield
    except np.linalg.LinAlgError:
        raise
    except ValueError as exc:
        raise CliError("%s: %s" % (path, exc)) from None


def _load_document(path, expect_format):
    """The JSON object at ``path``, whose ``format`` tag must be ``expect_format``."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CliError("cannot read %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise CliError("%s: invalid JSON: %s" % (path, exc)) from exc
    _choice(_key(doc, "format"), "format", (expect_format,), "be the format tag")
    return doc


def _dump_json(path, doc):
    """Write the JSON object ``doc`` with one top-level field per line.

    Each value is encoded by ``json.dumps`` with no ``indent``, the one call
    that takes CPython's C encoder (``json.dump``, and any ``indent``, take
    the pure-Python one).  Floats are written as their shortest round-trip
    repr either way, so a file reads back to the same numbers.
    """
    fields = ",\n".join("  %s: %s" % (json.dumps(key), json.dumps(value))
                         for key, value in doc.items())
    with open(path, "w") as fh:
        fh.write("{\n%s\n}\n" % fields)


def _margin_families(doc):
    """The field (``margin_families``, or else ``margins``) and margin families of the fit
    config ``doc``, each a name in FAMILY_PARAMS."""
    field = "margins" if "margins" in doc and "margin_families" not in doc else "margin_families"
    fams = _list(_key(doc, field), field)
    if field == "margins":
        fams = [_key(m, "family", field, i) for i, m in enumerate(fams)]
    return field, tuple(_choice(f, field, FAMILY_PARAMS, "name a margin family", i)
                        for i, f in enumerate(fams))


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
    """Load a model file; returns (model, doc, fields).

    A file with ``subprocess_corrs`` and ``crosses`` is read by
    :meth:`Model.from_dict`; its ``var`` entry, when present, must be the
    model's own VAR, each entry v within 1e-9 max(1, |v|).  A file with only a
    ``var`` entry loads with ``model`` None: k finite d x d ``phi`` blocks and a
    finite, positive definite d x d ``sigma`` (exit 2 if not), d being the
    variables of its ``partition``; its ``labels``, when present, are checked as
    a model's are.  ``fields`` holds the ``partition``, ``k``, ``labels`` (None
    when a var-only file has none), the VAR and ``names`` (None when absent, else
    one per variable).  A field that is refused exits 1 naming ``path`` and the field.
    """
    with _document_errors(path):
        doc = _load_document(path, MODEL_FORMAT)
        if "subprocess_corrs" in doc and "crosses" in doc:
            model = Model.from_dict(doc)
            part, k, labels, var = model.partition, model.k, model.labels, model.var()
        elif "var" in doc:
            model, part = None, _partition(_key(doc, "partition"))
            k = _integer(_key(doc, "k"), "k", least=1)
            labels = _labels(doc["labels"], part.n) if "labels" in doc else None
        else:
            raise ValueError("model field 'var' is missing, and so is 'subprocess_corrs' "
                             "or 'crosses'")
        if "var" in doc:
            shape = (part.d, part.d)
            phi = _blocks(_key(doc["var"], "phi", "var"), "var", k, shape)
            (sigma,) = _blocks([_key(doc["var"], "sigma", "var")], "var", 1, shape)
            if model is None:
                if not is_positive_definite(sigma):
                    raise InfeasibleError("model field 'var': sigma is not positive definite")
                var = VarRepresentation(phi=phi, sigma=sigma)
            elif any(np.any(np.abs(got - v) > 1e-9 * np.maximum(1.0, np.abs(v)))
                     for got, v in zip((*phi, sigma), (*var.phi, var.sigma))):
                raise ValueError("model field 'var' is not the VAR of the model's correlation "
                                 "blocks")
        names = _list(doc["names"], "names", part.d, "variable") if "names" in doc else None
    return model, doc, {"partition": part, "k": k, "labels": labels, "var": var, "names": names}


def _time_major_from_var(var, k):
    """Correlation matrix of (Z_t, ..., Z_{t-k}) implied by a VAR."""
    gams = implied_autocov(var, k)
    scale = 1.0 / np.sqrt(np.diag(gams[0]))
    return SubprocessCorr(blocks=[g * np.outer(scale, scale) for g in gams]).toeplitz()


# -- output helpers -----------------------------------------------------------

def _fmt_matrix(m, nd=3):
    m = np.atleast_2d(np.asarray(m, dtype=float))
    m = np.where(np.abs(m) < 0.5 * 10.0 ** -nd, 0.0, m)  # rounding noise prints unsigned
    row_format = " ".join(["% 9.{}f".format(nd)] * m.shape[1])
    return [row_format % tuple(row) for row in m.tolist()]


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
    """The model of the construct config ``doc``, and its ``names``.

    :meth:`Model.from_dict` reads the config and solves its crosses.  When
    the assembled R is not positive definite, the first part whose own
    correlation matrix is not names the failure (exit 2): a sub-process,
    then a pair, then the full set.
    """
    model = Model.from_dict(doc)
    r = model.time_major_R()
    if not is_positive_definite(r):
        part = model.partition

        def fails(*sets):
            idx = [l * part.d + v for l in range(model.k + 1) for i in sets for v in part.sets[i]]
            return not is_positive_definite(r[np.ix_(idx, idx)])

        for i in range(part.n):
            if fails(i):
                raise InfeasibleError("sub-process %d correlation structure is not positive "
                                      "definite" % i)
        for c in model.crosses:
            if fails(*c.pair):
                raise InfeasibleError("pair (%d, %d): fixed cross block makes the pair's joint "
                                      "correlation matrix non positive definite" % c.pair)
        raise InfeasibleError("assembled correlation matrix is not positive definite "
                              "(each pair is; the full set jointly is not)")
    d = model.partition.d
    return model, _list(doc["names"], "names", d, "variable") if "names" in doc else None


def cmd_construct(args):
    with _document_errors(args.config):
        doc = _load_document(args.config, CONFIG_FORMAT)
        seed = _integer(doc["seed"], "seed", least=0) if "seed" in doc else None
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
    if seed is not None:
        out_doc["seed"] = seed  # default seed for later simulate calls
    _dump_json(out, out_doc)
    print("model written to %s" % out)
    return 0


# -- verify --------------------------------------------------------------------

def cmd_verify(args):
    model, _, fields = load_model_file(args.config)
    part, k, labels, var = (fields[key] for key in ("partition", "k", "labels", "var"))
    r = model.time_major_R() if model is not None else _time_major_from_var(var, k)
    # verify_closure's LinAlgError on a matrix that is not PD exits 2 through main
    report = verify_closure(r, part, k, tol=args.tol)
    print(report)
    ok = report.all_pass
    if labels is not None:
        zeros_ok = coefficient_block_zeros(labels, var, part, tol=max(args.tol, 1e-8))
        print("condition-1 coefficient blocks vanish: %s" % ("yes" if zeros_ok else "no"))
        ok = ok and zeros_ok
    print("verification %s" % ("PASSED" if ok else "FAILED"))
    return 0 if ok else 1


# -- simulate -------------------------------------------------------------------

def cmd_simulate(args):
    model, doc, fields = load_model_file(args.config)
    seed = args.seed
    if seed is None:
        with _document_errors(args.config):
            seed = _integer(doc.get("seed", 0), "seed", least=0)
    elif seed < 0:
        raise CliError("--seed must be a non-negative integer, got %d" % seed)
    T = args.length
    if T is None:
        raise CliError("simulate needs --length")
    if model is not None:
        d, prefix, x = model.partition.d, "x", simulate_model(model, T, seed)
    else:
        d, prefix, x = fields["var"].d, "z", simulate(fields["var"], T, seed)
    names = fields["names"] or ["%s%d" % (prefix, i) for i in range(d)]
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
    """The ``--data`` CSV, its ``columns`` and ``transform`` read from the fit config ``doc``;
    a field that is refused raises ValueError naming it."""
    if not args.data:
        raise CliError("this subcommand needs --data CSV")
    ds = load_csv(args.data, doc.get("columns"))
    if doc.get("transform") is not None:
        specs = _list(doc["transform"], "transform", len(ds.names), "selected column")
        for i, s in enumerate(specs):
            _log_diff(s, i)
            _flag(s.get("scale_percent", False), "transform scale_percent", i)
        cols = [transform(ds.values[i], s) for i, s in enumerate(specs)]
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


def _model_config(doc, families, d, args):
    """Kind, ModelConfig and stage-4 flag of the fit config ``doc`` with
    :func:`_margin_families` ``families``, for d data columns.  Kind ``unrestricted`` is
    the benchmark: one set of the d columns, label 1, no stage 4; kind
    ``margin-closed``, the default, is the config's own partition.  ``--k`` overrides the
    order and ``--stage4`` switches stage 4 on.  Another kind, a ``stage4`` field of any
    kind that is not a boolean, a count of families other than the variables', or a field
    ModelConfig refuses raises ValueError naming the field; a ``--k`` below 1 exits 1
    naming ``--k``."""
    if args.k is not None and args.k < 1:
        raise CliError("--k must be at least 1, got %d" % args.k)
    kind = _choice(doc.get("kind", "margin-closed"), "kind", ("margin-closed", "unrestricted"),
                   "name a config kind")
    k = args.k if args.k is not None else _key(doc, "k")
    if kind == "unrestricted":
        part, labels = Partition(sets=(tuple(range(d)),), d=d), (1,)
    else:
        part, labels = _partition(_key(doc, "partition")), _key(doc, "labels")
    stage4 = _flag(doc.get("stage4", False), "stage4") or args.stage4
    field, families = families
    _list(families, field, part.d, "variable")
    config = ModelConfig(partition=part, labels=labels, k=k, margin_families=families)
    return kind, config, stage4 and kind != "unrestricted"


def cmd_fit(args):
    with _document_errors(args.config):
        doc = _load_document(args.config, CONFIG_FORMAT)
        families = _margin_families(doc)  # named before the data are read
        ds = _dataset_from_args(args, doc)
        _, config, stage4 = _model_config(doc, families, ds.values.shape[0], args)
    fm = fit_model(ds.values, config, stage4=stage4)
    _print_fit(fm, ds.names)

    e = residuals(latent_scores(ds.values, fm.model.margins), fm.model.var())
    max_lag = min(10, e.shape[1] - 1)
    if max_lag > config.k:
        pm = portmanteau(e, max_lag, config.k)
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

def cmd_compare(args):
    if not args.config or len(args.config) != 2:
        raise CliError("compare needs exactly two --config files")
    # both configs' families are named before the data are read, and both configs are
    # checked before either is fitted
    docs = []
    for path in args.config:
        with _document_errors(path):
            doc = _load_document(path, CONFIG_FORMAT)
            docs.append((doc, _margin_families(doc)))
    for field in ("columns", "transform"):  # AIC compares fits to the same observations
        if docs[1][0].get(field) != docs[0][0].get(field):
            raise CliError("%s: model field '%s' differs from that of %s"
                           % (args.config[1], field, args.config[0]))
    with _document_errors(args.config[0]):
        ds = _dataset_from_args(args, docs[0][0])
    configs = []
    for path, (doc, families) in zip(args.config, docs):
        with _document_errors(path):
            configs.append(_model_config(doc, families, ds.values.shape[0], args))
    rows = []
    for path, (kind, config, stage4) in zip(args.config, configs):
        fm = fit_model(ds.values, config, stage4=stage4)
        rows.append({"name": path, "kind": kind, "k": config.k, "loglik": fm.loglik,
                     "n_params": fm.n_params, "aic": fm.aic, "bic": fm.bic})
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
# of _worked_cases
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


def _scalar_model(autocorrs, labels, fixed):
    """The model, by :func:`construct_model`, of scalar sub-processes with lag
    1..k autocorrelations ``autocorrs``, ``labels`` and standard Gaussian
    margins, from one ``fixed`` value per pair i < j, in lexicographic order,
    at the lag the pair's labels fix."""
    n, k = len(autocorrs), len(autocorrs[0])
    subs = tuple(SubprocessCorr(blocks=tuple(np.array([[v]]) for v in (1.0, *rho)))
                 for rho in autocorrs)
    blocks = [CrossFixedBlock(pair=(i, j), lag=fixed_lag_for_labels((labels[i], labels[j]), k),
                              value=[[v]])
              for (i, j), v in zip(itertools.combinations(range(n), 2), fixed)]
    return construct_model(Partition(sets=tuple((i,) for i in range(n)), d=n), labels, k,
                           (MarginSpec("gaussian", (0.0, 1.0)),) * n, subs, blocks)


def _worked_cases(reference, width):
    """Per label case of ``reference``, the two-sub-process worked example with
    rho_1 = (1, -0.8, 0.6), rho_2 = (1, 0.6, 0.5), k = 2: print the header and
    Phi_1, Phi_2 against the reference, labelled in ``width`` columns, and
    yield (labels, reference row, VAR, max |Phi deviation|)."""
    for labels, ref in reference.items():
        var = _scalar_model(((-0.8, 0.6), (0.6, 0.5)), labels, (ref["fixed"],)).var()
        print("labels %s  fixed cross value %.3f (lag %d)"
              % (list(labels), ref["fixed"], fixed_lag_for_labels(labels, 2)))
        phi_dev = 0.0
        for m, phi in enumerate(var.phi):
            ref_phi = ref["phi%d" % (m + 1)]
            _print_side_by_side(("  Phi_%d" % (m + 1)).ljust(width), phi, ref_phi)
            phi_dev = max(phi_dev, float(np.max(np.abs(phi - np.array(ref_phi)))))
        yield labels, ref, var, phi_dev


def _table_t1():
    cases = []
    for labels, ref, var, phi_dev in _worked_cases(_T1_REFERENCE, len("  Sigma_eps")):
        _print_side_by_side("  Sigma_eps", var.sigma, ref["sigma"])
        case_dev = max(phi_dev, float(np.max(np.abs(var.sigma - np.array(ref["sigma"])))))
        print("  max |deviation| = %.2e" % case_dev)
        cases.append({
            "labels": list(labels),
            "phi1": var.phi[0].tolist(),
            "phi2": var.phi[1].tolist(),
            "sigma": var.sigma.tolist(),
            "max_abs_deviation": case_dev,
        })
    return max(c["max_abs_deviation"] for c in cases), {"cases": cases}


def _table_t2t3():
    cases = []
    for labels, ref, var, phi_dev in _worked_cases(_T3_REFERENCE, 0):
        s = var.sigma
        ic = float(s[0, 1] / np.sqrt(s[0, 0] * s[1, 1]))
        print("  innovation correlation  % .3f | ref % .3f" % (ic, ref["innov_corr"]))
        case_dev = max(phi_dev, abs(ic - ref["innov_corr"]))
        in_band = 0.79 <= ic <= 0.82
        print("  max |deviation| = %.2e  innovation correlation in [0.79, 0.82]: %s"
              % (case_dev, "yes" if in_band else "no"))
        cases.append({
            "labels": list(labels),
            "fixed": ref["fixed"],
            "phi1": var.phi[0].tolist(),
            "phi2": var.phi[1].tolist(),
            "innov_corr": ic,
            "max_abs_deviation": case_dev if in_band else max(case_dev, 1.0),
        })
    return max(c["max_abs_deviation"] for c in cases), {"cases": cases}


def _table_example1():
    """Closed-form check of the solved lag blocks for two scalar AR(1) subs."""
    grid = np.linspace(-0.9, 0.9, 13)
    rows = []
    for rho1, rho2 in ((0.9, 0.9), (0.9, -0.9), (0.5, -0.7)):
        dev = 0.0
        for c0 in grid:
            # both-1 labels: lag +1 follows sub 1, lag -1 follows sub 2; both-2 mirror them
            for labels, lag in (((1, 1), 1), ((2, 2), -1)):
                sol = _scalar_model(((rho1,), (rho2,)), labels, (c0,)).crosses[0]
                dev = max(dev, abs(sol.block(lag)[0, 0] - rho1 * c0),
                          abs(sol.block(-lag)[0, 0] - rho2 * c0))
        rows.append({"rho1": rho1, "rho2": rho2, "max_abs_deviation": dev})
        print("rho_{11,1}=% .2f rho_{22,1}=% .2f: solved lag blocks match "
              "closed forms to %.2e over %d grid points" % (rho1, rho2, dev, grid.size))
    print("closed forms: both-1 labels give (rho_{12,1}, rho_{12,-1}) = "
          "(rho_{11,1}, rho_{22,1}) x rho_{12,0}; both-2 labels mirror them")
    return max(r["max_abs_deviation"] for r in rows), {"rows": rows}


def _table_example3():
    rhos = (0.6, 0.7, 0.8)
    model = _scalar_model(tuple((r,) for r in rhos), (2, 2, 2), (0.5,) * 3)
    r = model.time_major_R()
    pd_ok = is_positive_definite(r)
    print("three scalar AR(1) sub-processes, lag-1 correlations %s," % (list(rhos),))
    print("all contemporaneous cross correlations 0.5, labels (2, 2, 2)")
    _print_block("R (time-major)", r)
    print("positive definite: %s" % ("yes" if pd_ok else "no"))
    if not pd_ok:
        return 1.0, {"positive_definite": False}
    report = verify_closure(r, model.partition, 1, tol=1e-8)
    print(report)
    worst = max(min(s.cond1_residual, s.cond2_residual) for s in report.subs)
    ok = pd_ok and report.all_pass
    return (0.0 if ok else 1.0) + worst, {
        "positive_definite": pd_ok,
        "closure_pass": report.all_pass,
        "worst_residual": worst,
        "R": r.tolist(),
    }


def _table_pdregion():
    grid = np.round(np.arange(-0.99, 0.995, 0.01), 2)

    def scan(rho1, rho2):
        return np.array([is_positive_definite(
            _scalar_model(((rho1,), (rho2,)), (2, 2), (c0,)).time_major_R()) for c0 in grid])

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
    dev, payload = fn()
    passed = bool(dev <= tol)
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

_OPTIONS = {
    "config": dict(help="config or model JSON file"),
    "data": dict(help="CSV data file"),
    "out": dict(help="output path"),
    "seed": dict(type=int, default=None, help="RNG seed"),
    "length": dict(type=int, default=None, help="number of time points"),
    "k": dict(type=int, default=None, help="override model order"),
    "tol": dict(type=float, default=None, help="tolerance override"),
    "stage4": dict(action="store_true", help="run the joint refinement stage after stage 3"),
}


@functools.cache
def _build_parser():
    """The parser, built once; a subcommand runs the ``cmd_<name>`` bound when it runs."""
    p = argparse.ArgumentParser(
        prog="mcvar",
        description="Margin-closed Gaussian VAR(k) models: construct, verify, "
                    "simulate, fit, compare, and reproduce reference tables.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(sp, *names, **defaults):
        """Register only the options the subcommand reads."""
        for name in names:
            sp.add_argument("--" + name, **_OPTIONS[name])
        sp.set_defaults(**defaults)

    sp = sub.add_parser("construct", help="solve cross blocks and write a model file")
    add(sp, "config", "out", "tol", tol=1e-8)

    sp = sub.add_parser("verify", help="check margin closure of a model file")
    add(sp, "config", "tol", tol=1e-8)

    sp = sub.add_parser("simulate", help="simulate observations from a model file")
    add(sp, "config", "length", "seed", "out")

    sp = sub.add_parser("fit", help="multi-stage fit of a config to CSV data")
    add(sp, "config", "data", "out", "k", "stage4")

    sp = sub.add_parser("compare", help="fit two configs to the same data, report AIC")
    sp.add_argument("--config", action="append", help="config JSON file; give it twice")
    add(sp, "data", "out", "k", "stage4")

    sp = sub.add_parser("tables", help="reproduce reference tables and check tolerances")
    sp.add_argument("name", help="one of: %s" % ", ".join(sorted(_TABLES)))
    add(sp, "tol", "out")
    return p


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return 1 if exc.code else 0
    try:
        return globals()["cmd_" + args.command](args)
    except (DegenerateCrossPair, InfeasibleError) as exc:
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
