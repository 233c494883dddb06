"""Command line front end.

Subcommands: construct, verify, simulate, fit, compare, tables.  Configs and
models are versioned JSON documents (format tags ``mcvar-config/1`` and
``mcvar-model/1``); data moves as header-row CSV with '.' decimal separator.

Exit codes: 0 success, 1 validation or usage error, 2 numerical
infeasibility (positive definiteness), 3 tolerance failure in ``tables``.
"""

import argparse
import csv
import functools
import itertools
import json
import sys
from dataclasses import dataclass

import numpy as np

from .closure import (
    CrossFixedBlock,
    DegenerateCrossPair,
    Partition,
    SubprocessCorr,
    coefficient_block_zeros,
    fixed_lag_for_labels,
    verify_closure,
)
from .estimation import (
    Model,
    ModelConfig,
    _family_field,
    _label_field,
    _lag_blocks,
    construct_model,
    fit_model,
    latent_scores,
    portmanteau,
    simulate_model,
)
from .linalg import is_positive_definite
from .margins import MarginSpec
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
    has that name; an integer is always an index.
    Missing, non-numeric or non-finite cells are rejected with their line and column.
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
            if isinstance(c, str) and (c in header or not c.lstrip("-").isdigit()):
                if c not in header:
                    raise CliError("column %r not found; file has %s" % (c, header))
                idx = header.index(c)
            else:
                idx = int(c) if isinstance(c, str) else _integer(c, '"columns"')
                if not 0 <= idx < len(header):
                    raise CliError("column index %d out of range (file has %d columns)"
                                   % (idx, len(header)))
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
            if not np.isfinite(out[v, t]):
                raise CliError(
                    "non-finite value at line %d, column %r: %r" % (lineno, header[i], cell)
                )
    return Dataset(names=names, values=out)


def transform(series, spec):
    """Log-difference transform of one series.

    ``spec`` carries ``log_diff`` (order m in {0, 1, 2}) and
    ``scale_percent``; the output is 100 x the m-th difference of the natural
    log when both are set, and has length T - m.
    """
    x = np.asarray(series, dtype=float)
    m = _integer(spec.get("log_diff", 0), '"log_diff"')
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

def _load_document(path, expect_format):
    """The document at ``path``, a JSON object whose format tag must be in
    ``expect_format``, and its integer fields ``partition`` (a list of lists,
    read as a Partition), ``k`` (at least 1) and ``labels`` (a list), each when
    present; each ``cross_fixed`` pair and lag is checked too.  A value of the
    wrong type, a bool, fraction or string for an integer included, exits 1
    naming path and field, and a ``cross_fixed`` entry without its pair or lag
    names its index."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CliError("cannot read %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise CliError("%s: invalid JSON: %s" % (path, exc)) from exc
    if not isinstance(doc, dict):
        raise CliError("%s: the document must be a JSON object, got %s"
                       % (path, type(doc).__name__))
    fmt = doc.get("format")
    if not isinstance(fmt, str) or fmt not in expect_format:
        raise CliError(
            '%s: "format" tag %r, expected one of %s' % (path, fmt, sorted(expect_format))
        )

    def integers(values, field):
        return tuple(_integer(v, "%s: %s" % (path, field))
                     for v in _list(values, "%s: %s" % (path, field)))

    fields = {}
    if "partition" in doc:
        sets = tuple(integers(s, '"partition"')
                     for s in _list(doc["partition"], '%s: "partition"' % path))
        fields["partition"] = Partition(sets=sets, d=sum(len(s) for s in sets))
    if "k" in doc:
        fields["k"] = _integer(doc["k"], '%s: "k"' % path)
        if fields["k"] < 1:
            raise CliError('%s: "k" must be at least 1, got %d' % (path, fields["k"]))
    if "labels" in doc:
        fields["labels"] = integers(doc["labels"], '"labels"')
    for i, e in enumerate(_list(doc.get("cross_fixed", []), '%s: "cross_fixed"' % path)):
        integers(_entry(e, "pair", path, "cross_fixed", i), '"cross_fixed" pair')
        _integer(_entry(e, "lag", path, "cross_fixed", i), '%s: "cross_fixed" lag' % path)
    return doc, fields


def _entry(entry, key, path, field, i):
    """``entry[key]``, entry i of the list ``field`` at ``path``; exit 1 naming all if
    absent or if the entry is not an object."""
    if not isinstance(entry, dict):
        raise CliError('%s: "%s" entry %d must be an object, got %r' % (path, field, i, entry))
    if key not in entry:
        raise CliError('%s: "%s" entry %d has no "%s"' % (path, field, i, key))
    return entry[key]


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


def _required(fields, name, path):
    """The integer field ``name`` of the config at ``path``; exit 1 naming both when absent."""
    if name not in fields:
        raise CliError('%s: config needs "%s"' % (path, name))
    return fields[name]


def _margin_families(doc, path):
    """The field (``margin_families``, or else ``margins``) and margin families of the fit
    config ``doc`` at ``path``; a field that is not a list, a ``margins`` entry without
    its family, or a name that is not a family exits 1 naming ``path`` and the field."""
    if "margin_families" in doc:
        field = "margin_families"
        fams = tuple(_list(doc[field], '%s: "%s"' % (path, field)))
    elif "margins" in doc:
        field = "margins"
        fams = tuple(_entry(m, "family", path, field, i)
                     for i, m in enumerate(_list(doc[field], '%s: "%s"' % (path, field))))
    else:
        raise CliError('%s: config needs "margins" or "margin_families"' % path)
    try:
        return field, tuple(_family_field(f, field, i) for i, f in enumerate(fams))
    except ValueError as exc:
        raise CliError("%s: %s" % (path, exc)) from None


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

    ``fields`` holds the integer fields of :func:`_load_document` and
    ``names``, None when absent or else one per variable.  The model is read
    by :meth:`Model.from_dict`; its ``var`` entry, when present, must be the
    model's own VAR, each entry v within 1e-9 max(1, |v|) (exit 1 naming
    ``var`` if not).  A file with only a ``var`` entry loads with ``model``
    None and ``fields["var"]``: k finite d x d ``phi`` blocks and a finite,
    positive definite d x d ``sigma`` (exit 2 if not), d being the variables
    of its ``partition``; its ``labels``, when present, are checked as a
    model's are.
    """
    doc, fields = _load_document(path, {MODEL_FORMAT})
    if "subprocess_corrs" in doc and "crosses" in doc:
        model = Model.from_dict(doc)
        d = model.partition.d
        if "var" in doc:
            var = model.var()
            for got, v in zip(_var_blocks(doc, model.k, d), (*var.phi, var.sigma)):
                if np.any(np.abs(got - v) > 1e-9 * np.maximum(1.0, np.abs(v))):
                    raise CliError("%s: model field 'var' is not the VAR of the model's "
                                   "correlation blocks" % path)
    elif "var" in doc:
        model, d = None, fields["partition"].d
        if "labels" in fields:
            _label_field(fields["labels"], fields["partition"].n)
        *phi, sigma = _var_blocks(doc, fields["k"], d)
        if not is_positive_definite(sigma):
            raise InfeasibleError("model field 'var': sigma is not positive definite")
        fields["var"] = VarRepresentation(phi=phi, sigma=sigma)
    else:
        raise CliError("%s: neither sub-process blocks nor a var entry" % path)
    fields["names"] = _names(doc, path, d)
    return model, doc, fields


def _var_blocks(doc, k, d):
    """The ``var`` entry of a model file: its k finite d x d phi blocks, then sigma."""
    return (*_lag_blocks(doc["var"]["phi"], "var", k, (d, d)),
            *_lag_blocks([doc["var"]["sigma"]], "var", 1, (d, d)))


def _integer(value, source, nonnegative=False):
    """An integer from a document or option; a bool, fraction or string is refused, not cast."""
    if isinstance(value, bool) or not isinstance(value, int) or (nonnegative and value < 0):
        raise CliError("%s must be %s integer, got %r"
                       % (source, "a non-negative" if nonnegative else "an", value))
    return value


def _list(value, source):
    """A list from a document; any other value, null included, is refused."""
    if not isinstance(value, list):
        raise CliError("%s must be a list, got %r" % (source, value))
    return value


def _names(doc, path, d):
    names = doc.get("names")
    if names and len(names) != d:
        raise CliError('%s: "names" has %d entries, expected %d' % (path, len(names), d))
    return names


def _time_major_from_var(var, k):
    """Correlation matrix of (Z_t, ..., Z_{t-k}) implied by a VAR."""
    gams = implied_autocov(var, k)
    scale = 1.0 / np.sqrt(np.diag(gams[0]))
    return SubprocessCorr(blocks=[g * np.outer(scale, scale) for g in gams]).toeplitz()


# -- output helpers -----------------------------------------------------------

def _fmt_matrix(m, nd=3):
    m = np.atleast_2d(np.asarray(m, dtype=float))
    m = np.where(np.abs(m) < 0.5 * 10.0 ** -nd, 0.0, m)  # rounding noise prints unsigned
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

def _build_from_config(doc, path):
    """The model of the construct config ``doc`` at ``path``, and its ``names``.

    :meth:`Model.from_dict` reads the config and solves its crosses.  When
    the assembled R is not positive definite, the first part whose own
    correlation matrix is not names the failure (exit 2): a sub-process,
    then a pair, then the full set.
    """
    if "margins" not in doc:
        raise CliError("construct needs fully specified 'margins'")
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
    return model, _names(doc, path, model.partition.d)


def cmd_construct(args):
    doc, _ = _load_document(args.config, {CONFIG_FORMAT})
    seed = _integer(doc["seed"], '%s: "seed"' % args.config, True) if "seed" in doc else None
    model, names = _build_from_config(doc, args.config)
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
    model, doc, fields = load_model_file(args.config)
    part, k = fields["partition"], fields["k"]
    labels = fields.get("labels")
    r = model.time_major_R() if model is not None else _time_major_from_var(fields["var"], k)
    # verify_closure's LinAlgError on a matrix that is not PD exits 2 through main
    report = verify_closure(r, part, k, tol=args.tol)
    print(report)
    ok = report.all_pass
    if labels is not None:
        var = model.var() if model is not None else fields["var"]
        zeros_ok = coefficient_block_zeros(labels, var, part, tol=max(args.tol, 1e-8))
        print("condition-1 coefficient blocks vanish: %s" % ("yes" if zeros_ok else "no"))
        ok = ok and zeros_ok
    print("verification %s" % ("PASSED" if ok else "FAILED"))
    return 0 if ok else 1


# -- simulate -------------------------------------------------------------------

def cmd_simulate(args):
    model, doc, fields = load_model_file(args.config)
    if args.seed is not None:
        seed = _integer(args.seed, "--seed", True)
    else:
        seed = _integer(doc.get("seed", 0), '%s: "seed"' % args.config, True)
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


def _model_config(doc, fields, path, families, d, args):
    """Kind, ModelConfig and stage-4 flag of the fit config at ``path`` with integer
    ``fields`` and :func:`_margin_families` ``families``, for d data columns.  Kind
    ``unrestricted`` is the benchmark: one set of the d columns, label 1, no stage 4;
    kind ``margin-closed``, the default, is the config's own partition; any other kind
    exits 1 naming ``path`` and ``kind``.  ``--k`` overrides the order and ``--stage4``
    switches stage 4 on.  A count of families other than the variables', or a field
    ModelConfig refuses, exits 1 naming ``path``, a ``--k`` below 1 naming ``--k``."""
    if args.k is not None and args.k < 1:
        raise CliError("--k must be at least 1, got %d" % args.k)
    kind = doc.get("kind", "margin-closed")
    if kind not in ("margin-closed", "unrestricted"):
        raise CliError('%s: "kind" must be "margin-closed" or "unrestricted", got %s'
                       % (path, json.dumps(kind)))
    k = args.k if args.k is not None else _required(fields, "k", path)
    if kind == "unrestricted":
        labels, stage4 = (1,), False
        part = Partition(sets=(tuple(range(d)),), d=d)
    else:
        part = _required(fields, "partition", path)
        labels = _required(fields, "labels", path)
        stage4 = args.stage4 or bool(doc.get("stage4", False))
    field, families = families
    if len(families) != part.d:
        raise CliError('%s: "%s" has %d entries, expected %d'
                       % (path, field, len(families), part.d))
    try:
        config = ModelConfig(partition=part, labels=labels, k=k, margin_families=families)
    except ValueError as exc:
        raise CliError("%s: %s" % (path, exc)) from None
    return kind, config, stage4


def cmd_fit(args):
    doc, fields = _load_document(args.config, {CONFIG_FORMAT})
    families = _margin_families(doc, args.config)  # named before the data are read
    ds = _dataset_from_args(args, doc)
    _, config, stage4 = _model_config(doc, fields, args.config, families, ds.values.shape[0],
                                      args)
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
    docs = [_load_document(path, {CONFIG_FORMAT}) for path in args.config]
    for field in ("columns", "transform"):  # AIC compares fits to the same observations
        if docs[1][0].get(field) != docs[0][0].get(field):
            raise CliError('%s: "%s" differs from that of %s'
                           % (args.config[1], field, args.config[0]))
    # both configs' families are named before the data are read, and both configs are
    # checked before either is fitted
    families = [_margin_families(doc, path) for path, (doc, _) in zip(args.config, docs)]
    ds = _dataset_from_args(args, docs[0][0])
    configs = [_model_config(doc, fields, path, fams, ds.values.shape[0], args)
               for path, (doc, fields), fams in zip(args.config, docs, families)]
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
