"""End-to-end tests of the command line interface."""

import copy
import csv
import functools
import importlib.util
import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import mcvar.cli as cli
import mcvar.closure as closure
from mcvar.varprocess import seeded_normals
from mcvar.cli import (CliError, Dataset, _fmt_matrix, load_csv, main, model_file_dict,
                       transform)
from oracles import fmt_matrix_oracle


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


def construct_config(labels=(2, 2), k=2, c0=0.35, blocks1=None, blocks2=None):
    b1 = blocks1 if blocks1 is not None else [1.0, -0.8, 0.6][: k + 1]
    b2 = blocks2 if blocks2 is not None else [1.0, 0.6, 0.5][: k + 1]
    from mcvar.closure import fixed_lag_for_labels

    return {
        "format": "mcvar-config/1",
        "k": k,
        "partition": [[0], [1]],
        "labels": list(labels),
        "names": ["u", "v"],
        "margins": [
            {"family": "gaussian", "params": [0.2, 1.3]},
            {"family": "gaussian", "params": [-0.5, 0.8]},
        ],
        "subprocess_corrs": [
            {"blocks": [[[v]] for v in b1]},
            {"blocks": [[[v]] for v in b2]},
        ],
        "cross_fixed": [
            {"pair": [0, 1], "lag": fixed_lag_for_labels(tuple(labels), k), "value": [[c0]]}
        ],
        "seed": 7,
    }


@functools.lru_cache(maxsize=None)
def bench_workloads():
    """The benchmark's ``bench/workloads.py``, which builds each workload's model and config."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ------------------------------------------------------------- output helpers


_FMT_NUMBERS = st.one_of(st.floats(-0.6, 0.6), st.floats(-1e4, 1e4),
                        st.floats(allow_nan=True, allow_infinity=True),
                        st.sampled_from([-0.0, 0.0, 0.5, -0.5, 1e300, -1e300]))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 6), st.data())
def test_fmt_matrix_prints_each_row_as_the_per_number_oracle(rows, cols, nd, data):
    tiny = 0.5 * 10.0 ** -nd  # the unsigned-zero threshold, and numbers on either side of it
    number = st.one_of(_FMT_NUMBERS, st.floats(-tiny, tiny), st.sampled_from(
        [tiny, -tiny, np.nextafter(tiny, 0.0), -np.nextafter(tiny, 0.0)]))
    m = data.draw(st.lists(st.lists(number, min_size=cols, max_size=cols),
                           min_size=rows, max_size=rows))
    assert _fmt_matrix(m, nd) == fmt_matrix_oracle(m, nd)


def test_fmt_matrix_prints_rounding_noise_unsigned():
    assert _fmt_matrix([[-1e-17, 1e-17, -0.0]]) == ["    0.000     0.000     0.000"]
    assert _fmt_matrix([[-0.002, 0.002]]) == ["   -0.002     0.002"]
    assert _fmt_matrix([[-0.0004, -0.0006]]) == ["    0.000    -0.001"]


# ----------------------------------------------------------------- CSV input


def test_load_csv_happy_path(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("a,b,c\n1,2.5,3\n4,5,-6.25\n")
    ds = load_csv(str(f))
    assert isinstance(ds, Dataset)
    assert ds.names == ("a", "b", "c")
    assert_allclose(ds.values, [[1.0, 4.0], [2.5, 5.0], [3.0, -6.25]])
    # selection by name and by index, in requested order
    sel = load_csv(str(f), columns=["c", "0"])
    assert sel.names == ("c", "a")
    assert_allclose(sel.values, [[3.0, -6.25], [1.0, 4.0]])


def test_load_csv_string_column_names_a_numeric_header_first(tmp_path):
    f = tmp_path / "years.csv"
    f.write_text("2019,2020\n1.5,2.5\n3.5,4.5\n")
    by_name = load_csv(str(f), columns=["2020"])
    assert by_name.names == ("2020",)
    assert_allclose(by_name.values, [[2.5, 4.5]])
    # a digit string no header has is still an index, and so is an integer
    assert load_csv(str(f), columns=["1", 0]).names == ("2020", "2019")
    with pytest.raises(ValueError, match="out of range"):
        load_csv(str(f), columns=["2021"])


def test_load_csv_error_messages(tmp_path):
    f = tmp_path / "bad.csv"
    path = re.escape(str(f))  # every refusal of the file's contents starts with its path
    f.write_text("a,b\n1,2\n3\n")
    with pytest.raises(CliError, match="^%s: line 3" % path):
        load_csv(str(f))
    f.write_text("a,b\n1,NA\n")
    with pytest.raises(CliError, match="^%s: missing value at line 2" % path):
        load_csv(str(f))
    f.write_text("a,b\n1,x2\n")
    with pytest.raises(CliError, match="^%s: parse error .* not a number" % path):
        load_csv(str(f))
    f.write_text("a,b\n1,inf\n")
    with pytest.raises(CliError, match="^%s: non-finite value at line 2" % path):
        load_csv(str(f))
    f.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="not found"):
        load_csv(str(f), columns=["z"])
    with pytest.raises(ValueError, match="out of range"):
        load_csv(str(f), columns=[5])
    # a Unicode digit int() refuses and a doubled sign are names, not indices
    for name in ("²", "--1"):
        with pytest.raises(ValueError, match="^model field 'columns' entry 0: column '%s' not "
                                             "found" % name):
            load_csv(str(f), columns=[name])
    f.write_text("a,b\n")
    with pytest.raises(CliError, match="^%s: no data rows" % path):
        load_csv(str(f))
    f.write_text("")
    with pytest.raises(CliError, match="^%s: empty" % path):
        load_csv(str(f))
    with pytest.raises(CliError, match="cannot read %s" % re.escape(str(tmp_path / "nope.csv"))):
        load_csv(str(tmp_path / "nope.csv"))


def test_transform_log_diff_examples():
    # constant level: first log difference is identically zero
    assert_allclose(transform(np.full(5, 3.7), {"log_diff": 1}), np.zeros(4), atol=1e-15)
    # exponential growth: percent log returns are exactly 100
    e = np.exp([1.0, 2.0, 3.0])
    assert_allclose(
        transform(e, {"log_diff": 1, "scale_percent": True}), [100.0, 100.0], atol=1e-10
    )
    # second difference of log(e^1, e^2, e^4, e^7) is (1, 1) -> 100 in percent
    e2 = np.exp([1.0, 2.0, 4.0, 7.0])
    assert_allclose(
        transform(e2, {"log_diff": 2, "scale_percent": True}), [100.0, 100.0], atol=1e-9
    )
    # plain percent scaling without differencing
    assert_allclose(transform(np.array([0.5]), {"scale_percent": True}), [50.0])


def test_transform_rejects_bad_input():
    with pytest.raises(CliError, match="position 1"):
        transform(np.array([1.0, -2.0, 3.0]), {"log_diff": 1})
    with pytest.raises(CliError, match="order"):
        transform(np.arange(1.0, 5.0), {"log_diff": 3})
    with pytest.raises(CliError, match="'transform scale_percent' must be true or false"):
        transform(np.array([0.5]), {"scale_percent": 1})


# ------------------------------------------------------------ the round trip


def test_construct_verify_simulate_fit_compare(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", construct_config())
    model_path = str(tmp_path / "model.json")
    assert main(["construct", "--config", cfg, "--out", model_path]) == 0
    out = capsys.readouterr().out
    assert "positive definite: yes" in out
    assert "condition 2 holds" in out
    doc = json.loads((tmp_path / "model.json").read_text())
    assert doc["format"] == "mcvar-model/1"
    assert doc["labels"] == [2, 2]
    assert "var" in doc and len(doc["var"]["phi"]) == 2

    assert main(["verify", "--config", model_path]) == 0
    out = capsys.readouterr().out
    assert "verification PASSED" in out

    sim_path = str(tmp_path / "sim.csv")
    assert main(["simulate", "--config", model_path, "--length", "400",
                 "--seed", "3", "--out", sim_path]) == 0
    capsys.readouterr()
    with open(sim_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["u", "v"]
    assert len(rows) == 401
    # identical seed, identical bytes
    sim2 = str(tmp_path / "sim2.csv")
    assert main(["simulate", "--config", model_path, "--length", "400",
                 "--seed", "3", "--out", sim2]) == 0
    capsys.readouterr()
    assert (tmp_path / "sim.csv").read_text() == (tmp_path / "sim2.csv").read_text()

    fit_cfg = write_json(tmp_path / "fit.json", {
        "format": "mcvar-config/1",
        "k": 2,
        "partition": [[0], [1]],
        "labels": [2, 2],
        "margin_families": ["gaussian", "gaussian"],
    })
    fitted_path = str(tmp_path / "fitted.json")
    assert main(["fit", "--config", fit_cfg, "--data", sim_path,
                 "--out", fitted_path]) == 0
    out = capsys.readouterr().out
    assert "portmanteau" in out
    fitted = json.loads((tmp_path / "fitted.json").read_text())
    assert fitted["format"] == "mcvar-model/1"
    assert fitted["fit"]["n_params"] == 9
    assert fitted["fit"]["T"] == 400
    # recovered dependence near the truth
    assert abs(fitted["crosses"][0]["blocks"][2][0][0] - 0.35) < 0.12

    # the fitted model file itself passes verification
    assert main(["verify", "--config", fitted_path]) == 0
    capsys.readouterr()

    unres_cfg = write_json(tmp_path / "unres.json", {
        "format": "mcvar-config/1",
        "kind": "unrestricted",
        "k": 2,
        "margin_families": ["gaussian", "gaussian"],
    })
    cmp_path = str(tmp_path / "cmp.json")
    assert main(["compare", "--config", fit_cfg, "--config", unres_cfg,
                 "--data", sim_path, "--out", cmp_path]) == 0
    out = capsys.readouterr().out
    assert "preferred by AIC" in out
    cmp_doc = json.loads((tmp_path / "cmp.json").read_text())
    assert len(cmp_doc["rows"]) == 2
    kinds = {r["kind"] for r in cmp_doc["rows"]}
    assert kinds == {"margin-closed", "unrestricted"}
    assert cmp_doc["preferred_by_aic"] in (fit_cfg, unres_cfg)


def test_simulate_uses_config_seed_default(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", construct_config())
    model_path = str(tmp_path / "model.json")
    assert main(["construct", "--config", cfg, "--out", model_path]) == 0
    capsys.readouterr()
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    assert main(["simulate", "--config", model_path, "--length", "50", "--out", a]) == 0
    assert main(["simulate", "--config", model_path, "--length", "50",
                 "--seed", "7", "--out", b]) == 0
    capsys.readouterr()
    assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()


def test_negative_seed_is_named_exit_1(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", construct_config())
    model_path = str(tmp_path / "model.json")
    assert main(["construct", "--config", cfg, "--out", model_path]) == 0
    capsys.readouterr()
    out = str(tmp_path / "sim.csv")
    # from the command line
    assert main(["simulate", "--config", model_path, "--length", "50",
                 "--seed", "-1", "--out", out]) == 1
    assert "--seed must be a non-negative integer, got -1" in capsys.readouterr().err
    # from a model file's default seed
    doc = json.loads((tmp_path / "model.json").read_text())
    doc["seed"] = -3
    bad_model = write_json(tmp_path / "bad_model.json", doc)
    assert main(["simulate", "--config", bad_model, "--length", "50", "--out", out]) == 1
    assert ("%s: model field 'seed' must be at least 0, got -3" % bad_model
            in capsys.readouterr().err)
    # from a construct config, before anything is written
    bad_cfg = dict(construct_config(), seed=-2)
    p = write_json(tmp_path / "bad_cfg.json", bad_cfg)
    other = tmp_path / "other.json"
    assert main(["construct", "--config", p, "--out", str(other)]) == 1
    assert "%s: model field 'seed' must be at least 0, got -2" % p in capsys.readouterr().err
    assert not other.exists()
    assert not (tmp_path / "sim.csv").exists()


def test_seed_that_is_not_an_integer_is_named_exit_1(tmp_path, capsys):
    var_doc = {
        "format": "mcvar-model/1",
        "k": 1,
        "partition": [[0, 1]],
        "var": {"phi": [[[0.5, 0.1], [0.0, -0.4]]], "sigma": [[1.0, 0.3], [0.3, 1.0]]},
    }
    out = tmp_path / "sim.csv"
    # a model file's default seed: a fraction and a string are not truncated or parsed
    for bad in (1.9, "5", True):
        p = write_json(tmp_path / "var.json", dict(var_doc, seed=bad))
        assert main(["simulate", "--config", p, "--length", "30", "--out", str(out)]) == 1
        assert ("%s: model field 'seed' must be an integer, got %r" % (p, bad)
                in capsys.readouterr().err)
        assert not out.exists()
    # a construct config's seed, before anything is written
    cfg = write_json(tmp_path / "cfg.json", dict(construct_config(), seed=2.5))
    model = tmp_path / "m.json"
    assert main(["construct", "--config", cfg, "--out", str(model)]) == 1
    assert "%s: model field 'seed' must be an integer, got 2.5" % cfg in capsys.readouterr().err
    assert not model.exists()
    # an integer seed still works
    p = write_json(tmp_path / "var.json", dict(var_doc, seed=4))
    assert main(["simulate", "--config", p, "--length", "30", "--out", str(out)]) == 0
    assert "(seed 4)" in capsys.readouterr().out


@pytest.mark.parametrize("command,where,bad,field", [
    ("construct", ("k",), 1.9, "model field 'k'"),
    ("construct", ("labels", 0), 2.7, "model field 'labels'"),
    ("construct", ("partition", 1, 0), 1.0, "model field 'partition'"),
    ("construct", ("cross_fixed", 0, "pair", 1), 1.2, "model field 'cross_fixed pair' entry 0"),
    ("construct", ("cross_fixed", 0, "lag"), 0.4, "model field 'cross_fixed lag' entry 0"),
    ("fit", ("k",), 2.5, "model field 'k'"),
    ("fit", ("labels", 1), True, "model field 'labels'"),
    ("fit", ("partition", 0, 0), "0", "model field 'partition'"),
    ("fit", ("transform", 0, "log_diff"), 1.7, "model field 'transform log_diff' entry 0"),
    ("fit", ("transform", 0, "log_diff"), True, "model field 'transform log_diff' entry 0"),
    ("verify", ("k",), 2.0, "model field 'k'"),
    ("verify", ("labels", 0), 2.0, "model field 'labels'"),
    ("verify", ("partition", 0, 0), 0.0, "model field 'partition'"),
    ("simulate", ("k",), 1.9, "model field 'k'"),
    ("simulate", ("partition", 1, 0), 1.5, "model field 'partition'"),
    ("simulate", ("labels", 0), 2.7, "model field 'labels'"),
    ("fit", ("columns", 0), True, "model field 'columns' entry 0"),
])
def test_integer_field_that_is_not_an_integer_is_named_exit_1(tmp_path, capsys, command,
                                                               where, bad, field):
    # every integer the CLI reads from a document is refused, never truncated
    if command in ("verify", "simulate"):
        # simulate reads a k = 1 model, which a truncated "k": 1.9 would still fit
        config = construct_config() if command == "verify" else construct_config(k=1, c0=0.2)
        cfg = write_json(tmp_path / "cfg.json", config)
        assert main(["construct", "--config", cfg, "--out", str(tmp_path / "model.json")]) == 0
        doc = json.loads((tmp_path / "model.json").read_text())
    elif command == "fit":
        doc = {"format": "mcvar-config/1", "k": 2, "partition": [[0], [1]], "labels": [2, 2],
               "margin_families": ["gaussian", "gaussian"], "columns": [0, 1],
               "transform": [{"log_diff": 1}, {}]}
        (tmp_path / "data.csv").write_text("u,v\n" + "".join("%d,%d\n" % (t + 1, t) for t in range(30)))
    else:
        doc = construct_config()
    target = doc
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = bad
    path = write_json(tmp_path / "bad.json", doc)
    out = tmp_path / "out.json"
    argv = {"construct": ["construct", "--config", path, "--out", str(out)],
            "fit": ["fit", "--config", path, "--data", str(tmp_path / "data.csv"),
                    "--out", str(out)],
            "verify": ["verify", "--config", path],
            "simulate": ["simulate", "--config", path, "--length", "30", "--out", str(out)]}[command]
    capsys.readouterr()
    assert main(argv) == 1
    assert "%s: %s must be an integer, got %r" % (path, field, bad) in capsys.readouterr().err
    assert not out.exists()


def test_construct_refuses_names_of_the_wrong_length_exit_1(tmp_path, capsys):
    # one name for two variables would give a CSV header shorter than its rows
    cfg = write_json(tmp_path / "cfg.json", dict(construct_config(), names=["only_one"]))
    model = tmp_path / "model.json"
    assert main(["construct", "--config", cfg, "--out", str(model)]) == 1
    assert ("%s: model field 'names' must hold one entry per variable: need 2 names entries, "
            "got 1" % cfg) in capsys.readouterr().err
    assert not model.exists()


def test_simulate_refuses_names_of_the_wrong_length_exit_1(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", construct_config())
    model = tmp_path / "model.json"
    assert main(["construct", "--config", cfg, "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    bad = write_json(tmp_path / "bad.json", dict(doc, names=["only_one"]))
    out = tmp_path / "sim.csv"
    capsys.readouterr()
    assert main(["simulate", "--config", bad, "--length", "30", "--out", str(out)]) == 1
    assert ("%s: model field 'names' must hold one entry per variable: need 2 names entries, "
            "got 1" % bad) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, var_only", [("verify", False), ("simulate", False),
                                               ("verify", True)])
def test_model_file_with_names_of_the_wrong_length_is_named_exit_1(tmp_path, capsys, command,
                                                                   var_only):
    # verify once passed a model file whose names were cut short, while simulate refused it
    workloads = bench_workloads()
    doc = workloads.config_doc(workloads.build("mixed_k1_stage4", 41).sim_model)
    cfg = write_json(tmp_path / "cfg.json", dict(doc, names=["x", "y", "w"]))
    model = tmp_path / "model.json"
    assert main(["construct", "--config", cfg, "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    if var_only:
        doc = {key: doc[key] for key in ("format", "k", "partition", "var", "names")}
    path = write_json(tmp_path / "bad.json", dict(doc, names=doc["names"][:2]))
    out = tmp_path / "sim.csv"
    argv = {"verify": ["verify", "--config", path],
            "simulate": ["simulate", "--config", path, "--length", "30", "--out", str(out)]}[command]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert ("%s: model field 'names' must hold one entry per variable: need 3 names entries, "
            "got 2" % path) in captured.err
    assert "Traceback" not in captured.err
    assert "PASSED" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("workload", ["paper_k2", "mixed_k1_stage4", "scale_k3_d19"])
def test_construct_writes_the_model_file_dict_one_field_per_line(tmp_path, workload):
    workloads = bench_workloads()
    model = workloads.build(workload, 41).sim_model
    cfg = write_json(tmp_path / "cfg.json", workloads.config_doc(model))
    out = tmp_path / "model.json"
    assert main(["construct", "--config", cfg, "--out", str(out)]) == 0
    want = model_file_dict(model)
    with open(out) as fh:
        assert json.load(fh) == want
    lines = out.read_text().splitlines()
    assert (lines[0], lines[-1]) == ("{", "}")
    fields = [json.loads("{%s}" % line.rstrip(",")) for line in lines[1:-1]]
    assert [key for field in fields for key in field] == list(want)


@pytest.mark.parametrize("command, field, bad", [
    ("verify", "labels", [2]),
    ("simulate", "margins", [{"family": "gaussian", "params": [0.2, 1.3]}]),
    ("verify", "labels", [2, 3]),
    ("simulate", "labels", [2, 3]),
])
def test_model_file_with_a_malformed_field_is_named_exit_1(tmp_path, capsys, command, field, bad):
    # one label or margin short once died with an IndexError, and a label 3 passed
    cfg = write_json(tmp_path / "cfg.json", construct_config())
    model = tmp_path / "model.json"
    assert main(["construct", "--config", cfg, "--out", str(model)]) == 0
    path = write_json(tmp_path / "bad.json", dict(json.loads(model.read_text()), **{field: bad}))
    out = tmp_path / "sim.csv"
    argv = {"verify": ["verify", "--config", path],
            "simulate": ["simulate", "--config", path, "--length", "30", "--out", str(out)]}[command]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "model field '%s'" % field in captured.err
    assert "PASSED" not in captured.out
    assert not out.exists()


def _cut_cross(doc):
    doc["crosses"][0]["blocks"] = doc["crosses"][0]["blocks"][:1]


def _nan_in_sub(doc):
    doc["subprocess_corrs"][1]["blocks"][1][0][0] = float("nan")


def _nan_in_cross(doc):
    doc["crosses"][0]["blocks"][2][0][0] = float("nan")


def _wide_sub_block(doc):
    doc["subprocess_corrs"][0]["blocks"][1] = [[0.5, 0.0]]


def _number_pair(doc):
    doc["crosses"][0]["pair"] = 7


@pytest.mark.parametrize("command", ["verify", "simulate"])
@pytest.mark.parametrize("field, edit", [
    ("crosses", _cut_cross), ("subprocess_corrs", _nan_in_sub),
    ("crosses", _nan_in_cross), ("subprocess_corrs", _wide_sub_block),
    ("crosses pair", _number_pair),
])
def test_model_file_with_malformed_blocks_is_named_exit_1(tmp_path, capsys, command, field, edit):
    # a cross cut to 1 of its 2k+1 blocks was broadcast over every lag, so
    # simulate wrote data from a model that is not closed; a NaN made simulate
    # exit 2 with a numerical failure; a pair of 7 escaped main as a TypeError
    cfg = write_json(tmp_path / "cfg.json", construct_config(k=1, c0=0.2))
    model = tmp_path / "model.json"
    assert main(["construct", "--config", cfg, "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    edit(doc)
    path = write_json(tmp_path / "bad.json", doc)
    out = tmp_path / "sim.csv"
    argv = {"verify": ["verify", "--config", path],
            "simulate": ["simulate", "--config", path, "--length", "30", "--out", str(out)]}[command]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "%s: model field '%s'" % (path, field) in captured.err
    assert "Traceback" not in captured.err
    assert "PASSED" not in captured.out
    assert not out.exists()


_ORDER_0_MODEL = {
    "format": "mcvar-model/1", "k": 0, "partition": [[0], [1]], "labels": [2, 2],
    "margins": [{"family": "gaussian", "params": [0.0, 1.0]}] * 2,
    "subprocess_corrs": [{"blocks": [[[1.0]]]}, {"blocks": [[[1.0]]]}],
    "crosses": [{"pair": [0, 1], "blocks": [[[0.35]]]}],
}
_ORDER_MINUS_1_VAR = {
    "format": "mcvar-model/1", "k": -1, "partition": [[0, 1]],
    "var": {"phi": [[[0.5, 0.1], [0.0, -0.4]]], "sigma": [[1.0, 0.3], [0.3, 1.0]]},
}


@pytest.mark.parametrize("command, doc", [
    ("verify", _ORDER_0_MODEL),
    ("simulate", _ORDER_0_MODEL),
    ("verify", _ORDER_MINUS_1_VAR),
])
def test_model_file_with_an_order_below_1_is_named_exit_1(tmp_path, capsys, command, doc):
    # k = 0 with blocks of matching length once passed verify and broke simulate
    # with a bare numpy error; a var-only k = -1 died in verify with an IndexError
    path = write_json(tmp_path / "bad.json", doc)
    out = tmp_path / "sim.csv"
    argv = {"verify": ["verify", "--config", path],
            "simulate": ["simulate", "--config", path, "--length", "30", "--out", str(out)]}[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "%s: model field 'k' must be at least 1, got %d" % (path, doc["k"]) in captured.err
    assert "Traceback" not in captured.err
    assert "PASSED" not in captured.out
    assert not out.exists()


def test_simulate_var_only_model_file(tmp_path, capsys):
    from mcvar.varprocess import VarRepresentation, simulate

    phi = [[[0.5, 0.1], [0.0, -0.4]], [[0.1, 0.0], [0.05, 0.2]]]
    sigma = [[1.0, 0.3], [0.3, 1.0]]
    p = write_json(tmp_path / "var.json", {
        "format": "mcvar-model/1",
        "k": 2,
        "partition": [[0, 1]],
        "var": {"phi": phi, "sigma": sigma},
    })
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--config", p, "--length", "40", "--seed", "9",
                 "--out", str(out)]) == 0
    assert "wrote 40 rows x 2 columns" in capsys.readouterr().out
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["z0", "z1"]
    got = np.array([[float(v) for v in row] for row in rows[1:]]).T
    var = VarRepresentation(phi=tuple(np.array(m) for m in phi), sigma=np.array(sigma))
    assert np.array_equal(got, simulate(var, 40, 9))


def test_fit_single_set_partition(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", construct_config())
    model_path = str(tmp_path / "model.json")
    sim_path = str(tmp_path / "sim.csv")
    assert main(["construct", "--config", cfg, "--out", model_path]) == 0
    assert main(["simulate", "--config", model_path, "--length", "300",
                 "--seed", "5", "--out", sim_path]) == 0
    fit_cfg = write_json(tmp_path / "fit.json", {
        "format": "mcvar-config/1",
        "k": 2,
        "partition": [[0, 1]],
        "labels": [1],
        "margin_families": ["gaussian", "gaussian"],
    })
    fitted_path = str(tmp_path / "fitted.json")
    assert main(["fit", "--config", fit_cfg, "--data", sim_path,
                 "--out", fitted_path]) == 0
    capsys.readouterr()
    fitted = json.loads((tmp_path / "fitted.json").read_text())
    assert fitted["crosses"] == []
    assert fitted["fit"]["n_params"] == 4 + 1 + 8


def test_verify_var_only_model_file(tmp_path, capsys):
    # closed case: block-diagonal VAR(1), each variable its own sub-process
    ok_doc = {
        "format": "mcvar-model/1",
        "k": 1,
        "partition": [[0], [1]],
        "labels": [1, 1],
        "var": {"phi": [[[0.5, 0.0], [0.0, -0.4]]],
                "sigma": [[1.0, 0.3], [0.3, 1.0]]},
    }
    p = write_json(tmp_path / "ok.json", ok_doc)
    assert main(["verify", "--config", p]) == 0
    assert "verification PASSED" in capsys.readouterr().out

    # non-closed case: triangular VAR(1) whose first variable is not AR(1)
    bad_doc = {
        "format": "mcvar-model/1",
        "k": 1,
        "partition": [[0], [1]],
        "var": {"phi": [[[0.0, 0.5], [0.0, 0.5]]],
                "sigma": [[1.0, 0.0], [0.0, 1.0]]},
    }
    p2 = write_json(tmp_path / "bad.json", bad_doc)
    assert main(["verify", "--config", p2]) == 1
    out = capsys.readouterr().out
    assert "verification FAILED" in out


def test_verify_checks_the_labels_of_both_kinds_of_model_file(tmp_path, capsys):
    # a labels-(2, 2) model read under labels (1, 1): its cross coefficients do not
    # vanish, whether the file holds the full model or only its var entry
    cfg = write_json(tmp_path / "cfg.json", construct_config())
    model_path = tmp_path / "m.json"
    assert main(["construct", "--config", cfg, "--out", str(model_path)]) == 0
    full = dict(json.loads(model_path.read_text()), labels=[1, 1])
    var_only = {key: full[key] for key in ("format", "k", "partition", "labels", "var")}
    capsys.readouterr()
    for doc in (full, var_only):
        assert main(["verify", "--config", write_json(tmp_path / "v.json", doc)]) == 1
        out = capsys.readouterr().out
        assert "condition-1 coefficient blocks vanish: no" in out
        assert "verification FAILED" in out
    # a var-only file's labels are refused as a full model's are: one per set, each 1 or 2
    for labels in ([1], [3, 3]):
        p = write_json(tmp_path / "v.json", dict(var_only, labels=labels))
        assert main(["verify", "--config", p]) == 1
        err = capsys.readouterr().err
        assert "model field 'labels'" in err and "Traceback" not in err


def test_verify_model_file_that_is_not_positive_definite_exit_2(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", construct_config())
    model_path = tmp_path / "m.json"
    assert main(["construct", "--config", cfg, "--out", str(model_path)]) == 0
    doc = json.loads(model_path.read_text())
    # tripled cross blocks take the joint correlation matrix out of the PD cone
    for c in doc["crosses"]:
        c["blocks"] = (3.0 * np.asarray(c["blocks"])).tolist()
    capsys.readouterr()
    assert main(["verify", "--config", write_json(tmp_path / "bad.json", doc)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "not positive definite" in err


# ------------------------------------------------------------------ failures


def test_construct_infeasible_exit_2(tmp_path, capsys):
    # strong opposite-sign serial correlation leaves almost no feasible
    # contemporaneous dependence; 0.5 is far outside
    cfg = write_json(
        tmp_path / "cfg.json",
        construct_config(labels=(2, 2), k=1, c0=0.5,
                         blocks1=[1.0, 0.9], blocks2=[1.0, -0.9]),
    )
    assert main(["construct", "--config", cfg, "--out", str(tmp_path / "m.json")]) == 2
    err = capsys.readouterr().err
    assert "positive definite" in err


def test_construct_names_the_one_infeasible_pair_exit_2(tmp_path, capsys):
    # pairs (0, 1) and (1, 2) are feasible; (0, 2) repeats the infeasible
    # pair of test_construct_infeasible_exit_2
    doc = construct_config(labels=(2, 2), k=1)
    doc.update(
        partition=[[0], [1], [2]],
        labels=[2, 2, 2],
        names=["u", "v", "w"],
        margins=[{"family": "gaussian", "params": [0.0, 1.0]}] * 3,
        subprocess_corrs=[{"blocks": [[[1.0]], [[rho]]]} for rho in (0.9, 0.3, -0.9)],
        cross_fixed=[{"pair": list(pair), "lag": 0, "value": [[c0]]}
                     for pair, c0 in (((0, 1), 0.1), ((0, 2), 0.5), ((1, 2), 0.1))],
    )
    cfg = write_json(tmp_path / "cfg.json", doc)
    assert main(["construct", "--config", cfg, "--out", str(tmp_path / "m.json")]) == 2
    err = capsys.readouterr().err
    assert "pair (0, 2)" in err
    assert "pair (0, 1)" not in err and "pair (1, 2)" not in err


def test_construct_pairs_feasible_but_not_jointly_exit_2(tmp_path, capsys):
    # each pair's correlation 0.9, 0.9 or -0.9 is feasible on its own, but
    # corr(0, 1) = corr(0, 2) = 0.9 forces corr(1, 2) near +0.62, not -0.9
    doc = construct_config(labels=(2, 2), k=1)
    doc.update(
        partition=[[0], [1], [2]],
        labels=[2, 2, 2],
        names=["u", "v", "w"],
        margins=[{"family": "gaussian", "params": [0.0, 1.0]}] * 3,
        subprocess_corrs=[{"blocks": [[[1.0]], [[0.1]]]}] * 3,
        cross_fixed=[{"pair": list(pair), "lag": 0, "value": [[c0]]}
                     for pair, c0 in (((0, 1), 0.9), ((0, 2), 0.9), ((1, 2), -0.9))],
    )
    cfg = write_json(tmp_path / "cfg.json", doc)
    assert main(["construct", "--config", cfg, "--out", str(tmp_path / "m.json")]) == 2
    err = capsys.readouterr().err
    assert "each pair is; the full set jointly is not" in err
    assert "pair (" not in err


def test_fit_rejects_a_non_finite_cell_exit_1(tmp_path, capsys):
    rows = np.random.default_rng(3).normal(size=(200, 2)).tolist()
    rows[57][1] = "inf"
    data = tmp_path / "d.csv"
    data.write_text("u,v\n" + "".join("%s,%s\n" % tuple(r) for r in rows))
    fit_cfg = write_json(tmp_path / "fit.json", {
        "format": "mcvar-config/1",
        "k": 1,
        "partition": [[0], [1]],
        "labels": [2, 2],
        "margin_families": ["gaussian", "gaussian"],
    })
    assert main(["fit", "--config", fit_cfg, "--data", str(data),
                 "--out", str(tmp_path / "fitted.json")]) == 1
    assert ("error: %s: non-finite value at line 59, column 'v'" % data
            in capsys.readouterr().err)


def _fit_config(**edits):
    doc = {"format": "mcvar-config/1", "k": 1, "partition": [[0], [1]], "labels": [2, 2],
           "margin_families": ["gaussian", "gaussian"]}
    doc.update(edits)
    return {key: value for key, value in doc.items() if value is not None}


def _small_csv(tmp_path):
    rows = np.random.default_rng(3).normal(size=(60, 2)).tolist()
    data = tmp_path / "d.csv"
    data.write_text("u,v\n" + "".join("%r,%r\n" % tuple(r) for r in rows))
    return str(data)


@pytest.mark.parametrize("edits, message", [
    ({"partition": None}, "model field 'partition' is missing"),
    ({"labels": None}, "model field 'labels' is missing"),
    ({"k": None}, "model field 'k' is missing"),
    ({"margin_families": None}, "model field 'margin_families' is missing"),
    ({"margin_families": ["gaussian"]}, "model field 'margin_families' must hold one entry per "
                                        "variable: need 2 margin_families entries, got 1"),
    ({"margin_families": None, "margins": [{"family": "gaussian", "params": [0.0, 1.0]}]},
     "model field 'margins' must hold one entry per variable: need 2 margins entries, got 1"),
    # each of these once escaped main as a TypeError or AttributeError
    ({"transform": [7, {}]}, "model field 'transform' entry 0 must be an object, got 7"),
    ({"transform": 7}, "model field 'transform' must be a list, got 7"),
    ({"columns": 7}, "model field 'columns' must be a list, got 7"),
    # each of these was once read with bool() and so switched on
    ({"stage4": "false"}, "model field 'stage4' must be true or false, got 'false'"),
    ({"kind": "unrestricted", "stage4": "yes"},
     "model field 'stage4' must be true or false, got 'yes'"),
    ({"columns": ["--1"]}, "model field 'columns' entry 0: column '--1' not found"),
    ({"transform": [{"scale_percent": "yes"}, {}]},
     "model field 'transform scale_percent' entry 0 must be true or false, got 'yes'"),
])
def test_fit_config_without_a_field_is_named_with_its_path_exit_1(tmp_path, capsys, edits,
                                                                   message):
    cfg = write_json(tmp_path / "fit.json", _fit_config(**edits))
    assert main(["fit", "--config", cfg, "--data", _small_csv(tmp_path),
                 "--out", str(tmp_path / "fitted.json")]) == 1
    assert "error: %s: %s" % (cfg, message) in capsys.readouterr().err
    assert not (tmp_path / "fitted.json").exists()


@pytest.mark.parametrize("edits, message", [
    ({"labels": None}, "model field 'labels' is missing"),
    ({"kind": "unrestricted", "k": None}, "model field 'k' is missing"),
    ({"kind": "unrestricted", "margin_families": ["gaussian"] * 3},
     "model field 'margin_families' must hold one entry per variable: need 2 margin_families "
     "entries, got 3"),
    ({"partition": None}, "model field 'partition' is missing"),
])
def test_compare_names_the_config_that_lacks_a_field_exit_1(tmp_path, capsys, edits, message):
    good = write_json(tmp_path / "good.json", _fit_config(kind="unrestricted"))
    bad = write_json(tmp_path / "bad.json", _fit_config(**edits))
    assert main(["compare", "--config", good, "--config", bad, "--data", _small_csv(tmp_path),
                 "--out", str(tmp_path / "cmp.json")]) == 1
    assert "error: %s: %s" % (bad, message) in capsys.readouterr().err
    assert not (tmp_path / "cmp.json").exists()


@pytest.mark.parametrize("command", ["fit", "compare"])
def test_a_config_field_that_model_config_refuses_is_named_before_any_fit(tmp_path, capsys,
                                                                          monkeypatch, command):
    calls = []
    monkeypatch.setattr(cli, "fit_model", lambda *args, **kwargs: calls.append(args))
    good = write_json(tmp_path / "good.json", _fit_config())
    bad = write_json(tmp_path / "bad.json", _fit_config(labels=[2]))
    configs = ["--config", good] * (command == "compare") + ["--config", bad]
    assert main([command, *configs, "--data", _small_csv(tmp_path),
                 "--out", str(tmp_path / "out.json")]) == 1
    assert ("error: %s: model field 'labels' must hold one entry per partition set: "
            "need 2 labels entries, got 1" % bad) in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("command", ["fit", "compare"])
def test_an_order_option_below_1_is_named_as_the_option_exit_1(tmp_path, capsys, command):
    cfg = write_json(tmp_path / "fit.json", _fit_config())
    configs = ["--config", cfg] * (2 if command == "compare" else 1)
    assert main([command, *configs, "--data", _small_csv(tmp_path), "--k", "0",
                 "--out", str(tmp_path / "out.json")]) == 1
    assert "error: --k must be at least 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "compare"])
@pytest.mark.parametrize("kind", ["unrestriced", "Unrestricted", 1, None, ["unrestricted"]])
def test_a_config_of_an_unknown_kind_is_named_before_any_fit_exit_1(tmp_path, capsys,
                                                                    monkeypatch, command, kind):
    # a misspelt kind was once fitted as margin-closed; a null kind is not an absent one
    calls = []
    monkeypatch.setattr(cli, "fit_model", lambda *args, **kwargs: calls.append(args))
    good = write_json(tmp_path / "good.json", _fit_config())
    doc = _fit_config()
    doc["kind"] = kind
    bad = write_json(tmp_path / "bad.json", doc)
    configs = ["--config", good] * (command == "compare") + ["--config", bad]
    assert main([command, *configs, "--data", _small_csv(tmp_path),
                 "--out", str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err
    assert ("error: %s: model field 'kind' must name a config kind (margin-closed, "
            "unrestricted), got %r" % (bad, kind)) in err
    assert "Traceback" not in err and calls == []


@pytest.mark.parametrize("command", ["fit", "compare"])
def test_a_config_of_kind_margin_closed_is_the_default(tmp_path, capsys, command):
    outs = []
    for name, kind in (("absent", None), ("named", "margin-closed")):
        cfg = write_json(tmp_path / ("%s.json" % name), _fit_config(kind=kind))
        out = tmp_path / ("%s_out.json" % name)
        configs = ["--config", cfg] * (2 if command == "compare" else 1)
        assert main([command, *configs, "--data", _small_csv(tmp_path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        outs.append(doc["rows"][0]["loglik"] if command == "compare" else doc["fit"]["loglik"])
    assert outs[0] == outs[1]


_SCORES = ("loglik", "n_params", "aic", "bic")


def _compare_rows(tmp_path, data, *options):
    """compare's rows for the two-set config of _fit_config against the unrestricted one."""
    closed = write_json(tmp_path / "closed.json", _fit_config())
    free = write_json(tmp_path / "free.json",
                      _fit_config(kind="unrestricted", partition=None, labels=None))
    out = tmp_path / "cmp.json"
    assert main(["compare", "--config", closed, "--config", free, "--data", data,
                 "--out", str(out), *options]) == 0
    return json.loads(out.read_text())["rows"]


def test_compare_rows_are_the_fit_model_fits_of_both_configs(tmp_path, capsys):
    from mcvar.estimation import ModelConfig, fit_model

    data = _small_csv(tmp_path)
    values = load_csv(data).values
    config = ModelConfig(partition=closure.Partition(sets=((0,), (1,)), d=2), labels=(2, 2), k=1,
                         margin_families=("gaussian", "gaussian"))
    free = fit_model(values, ModelConfig(partition=closure.Partition(sets=((0, 1),), d=2),
                                         labels=(1,), k=1, margin_families=("gaussian", "gaussian")))
    rows = {}
    for stage4 in (False, True):
        closed_row, free_row = rows[stage4] = _compare_rows(tmp_path, data,
                                                            *["--stage4"] * stage4)
        closed = fit_model(values, config, stage4=stage4)
        assert [closed_row[s] for s in _SCORES] == [getattr(closed, s) for s in _SCORES]
        assert [free_row[s] for s in _SCORES] == [getattr(free, s) for s in _SCORES]
    # --stage4 refines the margin-closed fit only; it does not apply to the benchmark
    assert rows[True][0]["loglik"] != rows[False][0]["loglik"]
    assert rows[True][1] == rows[False][1]


# neither --stage4 nor a boolean stage4 field applies to the benchmark
@pytest.mark.parametrize("options, stage4", [([], None), (["--stage4"], None), ([], True)],
                         ids=["options0", "options1", "config_stage4"])
def test_fit_of_an_unrestricted_config_gives_compares_benchmark_row(tmp_path, capsys, options,
                                                                     stage4):
    data = _small_csv(tmp_path)
    out = tmp_path / "fitted.json"
    free = write_json(tmp_path / "one.json",
                      _fit_config(kind="unrestricted", partition=None, labels=None, stage4=stage4))
    assert main(["fit", "--config", free, "--data", data, "--out", str(out), *options]) == 0
    fit = json.loads(out.read_text())["fit"]
    row = _compare_rows(tmp_path, data)[1]
    assert [fit[s] for s in _SCORES] == [row[s] for s in _SCORES]
    assert fit["stage4"] is False


@pytest.mark.parametrize("edit, field", [
    (lambda doc: [doc], "JSON object"),
    (lambda doc: dict(doc, format=["mcvar-config/1"]), "model field 'format'"),
    (lambda doc: dict(doc, partition=None), "model field 'partition'"),
    (lambda doc: dict(doc, partition=[[0], None]), "model field 'partition'"),
    (lambda doc: dict(doc, labels=None), "model field 'labels'"),
])
def test_a_document_of_the_wrong_shape_is_named_exit_1(tmp_path, capsys, edit, field):
    # each of these once escaped main as a TypeError or AttributeError traceback
    cfg = write_json(tmp_path / "cfg.json", edit(construct_config()))
    out = tmp_path / "m.json"
    assert main(["construct", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s: " % cfg) and field in err
    assert "Traceback" not in err and not out.exists()


def test_construct_non_pd_subprocess_exit_2(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "cfg.json",
        construct_config(k=1, blocks1=[1.0, 1.0], blocks2=[1.0, 0.2], c0=0.1),
    )
    assert main(["construct", "--config", cfg, "--out", str(tmp_path / "m.json")]) == 2
    assert "sub-process 0" in capsys.readouterr().err


@pytest.mark.parametrize("count", [1, 3])
def test_construct_miscounted_subprocess_corrs_exit_1(tmp_path, capsys, count):
    doc = construct_config()
    doc["subprocess_corrs"] = (doc["subprocess_corrs"] * 2)[:count]
    cfg = write_json(tmp_path / "cfg.json", doc)
    assert main(["construct", "--config", cfg, "--out", str(tmp_path / "m.json")]) == 1
    err = capsys.readouterr().err
    assert "need 2 subprocess_corrs entries" in err
    assert "got %d" % count in err


def _nan_fixed_block(doc):
    doc["cross_fixed"][0]["value"] = [[float("nan")]]


def _duplicated_pair(doc):
    doc["cross_fixed"].append(dict(doc["cross_fixed"][0], value=[[0.1]]))


def _pair_outside_the_partition(doc):
    doc["cross_fixed"].append({"pair": [0, 2], "lag": -1, "value": [[0.1]]})


def _nan_in_a_subprocess_block(doc):
    doc["subprocess_corrs"][1]["blocks"][1] = [[float("nan")]]


def _both_crosses_and_fixed_blocks(doc):
    doc["crosses"] = [{"pair": [0, 1], "blocks": [[[0.0]], [[0.2]], [[0.0]]]}]


@pytest.mark.parametrize("edit, field", [
    (_nan_fixed_block, "model field 'cross_fixed'"),
    (_duplicated_pair, "model field 'cross_fixed'"),
    (_pair_outside_the_partition, "model field 'cross_fixed'"),
    (_nan_in_a_subprocess_block, "model field 'subprocess_corrs'"),
    (_both_crosses_and_fixed_blocks, "model fields 'crosses' and 'cross_fixed'"),
])
def test_construct_refuses_a_config_its_model_file_could_not_hold_exit_1(tmp_path, capsys,
                                                                         edit, field):
    # with labels (1, 2) nothing is solved, so a NaN fixed block once went into the
    # model file, which verify and simulate then refused; a second entry for a pair
    # silently replaced the first, one for a pair outside the partition was ignored,
    # and a NaN sub-process block was reported positive definite
    doc = construct_config(labels=(1, 2), k=1, c0=0.2)
    edit(doc)
    model = tmp_path / "model.json"
    assert main(["construct", "--config", write_json(tmp_path / "cfg.json", doc),
                 "--out", str(model)]) == 1
    captured = capsys.readouterr()
    assert field in captured.err
    assert "Traceback" not in captured.err
    assert "positive definite: yes" not in captured.out
    assert not model.exists()


_VAR_ONLY = {"format": "mcvar-model/1", "k": 1, "partition": [[0, 1]],
             "var": {"phi": [[[0.5, 0.1], [0.0, -0.4]]], "sigma": [[1.0, 0.3], [0.3, 1.0]]}}


@pytest.mark.parametrize("command", ["verify", "simulate"])
@pytest.mark.parametrize("doc", [
    dict(_VAR_ONLY, partition=[[0], [1], [2]]),
    dict(_VAR_ONLY, var=dict(_VAR_ONLY["var"], phi=_VAR_ONLY["var"]["phi"] * 2)),
    dict(_VAR_ONLY, var=dict(_VAR_ONLY["var"], phi=[[[float("nan"), 0.1], [0.0, -0.4]]])),
    dict(_VAR_ONLY, var="x"),
    dict(_VAR_ONLY, var=7),
], ids=["three-set partition of two variables", "two phi blocks at k = 1", "nan in phi",
        "string var", "number var"])
def test_var_only_model_file_that_does_not_fit_its_fields_is_named_exit_1(tmp_path, capsys,
                                                                          command, doc):
    # verify and simulate once disagreed on each: a numpy error against a written
    # CSV, closure judged at order 1 against a simulated VAR(2), exit 2 against 1; a
    # var that is not an object escaped main as a TypeError
    path = write_json(tmp_path / "var.json", doc)
    out = tmp_path / "sim.csv"
    argv = {"verify": ["verify", "--config", path],
            "simulate": ["simulate", "--config", path, "--length", "30", "--out", str(out)]}[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "%s: model field 'var'" % path in captured.err
    assert "Traceback" not in captured.err
    assert "PASSED" not in captured.out and "FAILED" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "simulate"])
@pytest.mark.parametrize("sigma", [[[1.0, 0.0], [0.0, -1.0]], [[1.0, 0.0], [0.0, 0.0]]])
def test_var_only_model_file_whose_sigma_is_not_positive_definite_exit_2(tmp_path, capsys,
                                                                        command, sigma):
    # verify once exited 1 here, through the NaN of a negative variance's square root
    doc = dict(_VAR_ONLY, var=dict(_VAR_ONLY["var"], sigma=sigma))
    path = write_json(tmp_path / "var.json", doc)
    out = tmp_path / "sim.csv"
    argv = {"verify": ["verify", "--config", path],
            "simulate": ["simulate", "--config", path, "--length", "30", "--out", str(out)]}[command]
    assert main(argv) == 2
    assert "model field 'var': sigma is not positive definite" in capsys.readouterr().err
    assert not out.exists()


def test_the_parser_is_built_once_and_each_parse_starts_empty(tmp_path, capsys):
    assert cli._build_parser() is cli._build_parser()
    configs = [write_json(tmp_path / ("cfg%d.json" % i), construct_config()) for i in range(2)]
    missing = str(tmp_path / "missing.csv")
    assert main(["compare", "--config", configs[0], "--config", configs[1], "--data", missing]) == 1
    assert "cannot read %s" % missing in capsys.readouterr().err
    # a second parse that kept the first's --config values would see three files
    assert main(["compare", "--config", configs[0], "--data", missing]) == 1
    assert "compare needs exactly two --config files" in capsys.readouterr().err


def test_a_subcommand_runs_the_module_binding_of_its_command(monkeypatch):
    # the parser is built once, so a wrapper put on cmd_<name> later must still run
    cli._build_parser()
    monkeypatch.setattr(cli, "cmd_tables", lambda args: 7)
    assert main(["tables", "t1"]) == 7


def test_usage_errors_exit_1(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["construct", "--config", missing]) == 1
    # wrong format tag
    p = write_json(tmp_path / "wrong.json", {"format": "other/9"})
    assert main(["construct", "--config", p]) == 1
    # bad margin family
    bad = construct_config()
    bad["margins"][0]["family"] = "levy"
    p2 = write_json(tmp_path / "bad.json", bad)
    assert main(["construct", "--config", p2]) == 1
    # simulate without --length
    cfg = write_json(tmp_path / "cfg.json", construct_config())
    model_path = str(tmp_path / "model.json")
    assert main(["construct", "--config", cfg, "--out", model_path]) == 0
    capsys.readouterr()
    assert main(["simulate", "--config", model_path]) == 1
    # compare needs exactly two configs
    assert main(["compare", "--config", cfg, "--data", "x.csv"]) == 1
    capsys.readouterr()


def test_tables_t1_passes_and_tight_tolerance_fails(tmp_path, capsys):
    out = str(tmp_path / "t1.json")
    assert main(["tables", "t1", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "PASS" in text
    doc = json.loads((tmp_path / "t1.json").read_text())
    assert doc["passed"] is True
    assert doc["max_abs_deviation"] <= 1e-3

    assert main(["tables", "t1", "--tol", "1e-12", "--out", out]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_tables_example1_closed_form(tmp_path, capsys):
    out = str(tmp_path / "e1.json")
    assert main(["tables", "example1", "--out", out]) == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "e1.json").read_text())
    assert doc["passed"] is True
    assert doc["max_abs_deviation"] <= 1e-10


@pytest.mark.parametrize("name", ["t1", "t2t3", "example1", "example3", "pdregion"])
def test_every_table_passes_at_its_default_tolerance(tmp_path, capsys, name):
    out = tmp_path / "table.json"
    assert main(["tables", name, "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    parts = doc.get("cases", doc.get("rows"))
    if parts is not None:
        assert doc["max_abs_deviation"] == max(p["max_abs_deviation"] for p in parts)


def test_tables_example1_reports_each_rows_own_deviation(tmp_path, capsys, monkeypatch):
    solve = closure._solve_pairs

    def shifted(stacks, labels, pairs, values):
        solved, tangent = solve(stacks, labels, pairs, values)
        # a solve error only where both sub-processes have lag-1 correlation 0.9
        if all(stacks[c][-1][0, 0] == 0.9 for c in (0, 1)):
            solved = [s + 1e-3 for s in solved]
        return solved, tangent

    monkeypatch.setattr(closure, "_solve_pairs", shifted)
    out = tmp_path / "e1.json"
    assert main(["tables", "example1", "--out", str(out)]) == 3
    capsys.readouterr()
    doc = json.loads(out.read_text())
    devs = [r["max_abs_deviation"] for r in doc["rows"]]
    assert devs[0] > 0.0
    assert devs[1:] == [0.0, 0.0]
    assert doc["max_abs_deviation"] == devs[0]


def test_tables_unknown_name(capsys):
    assert main(["tables", "t99"]) == 1
    assert "unknown table" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    [],
    ["fit", "--bogus"],
    ["simulate", "--config", "m.json", "--length", "abc"],
    ["verify", "--config", "m.json", "--stage4"],
    ["construct", "--config", "c.json", "--seed", "1"],
    ["tables", "t1", "--data", "x.csv"],
])
def test_usage_error_exits_1(argv, capsys):
    assert main(argv) == 1
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["fit", "--help"]])
def test_help_exits_0(argv, capsys):
    assert main(argv) == 0
    assert "usage:" in capsys.readouterr().out


def test_fit_reports_a_margin_that_did_not_converge(tmp_path, capsys, monkeypatch):
    import mcvar.estimation as estimation
    from mcvar.margins import MarginFit, fit_margin

    def unconverged(x, family):
        fit = fit_margin(x, family)
        return MarginFit(spec=fit.spec, loglik=fit.loglik, converged=False)

    cfg = write_json(tmp_path / "cfg.json", construct_config())
    model_path, sim_path = str(tmp_path / "model.json"), str(tmp_path / "sim.csv")
    assert main(["construct", "--config", cfg, "--out", model_path]) == 0
    assert main(["simulate", "--config", model_path, "--length", "300",
                 "--seed", "5", "--out", sim_path]) == 0
    fit_cfg = write_json(tmp_path / "fit.json", {
        "format": "mcvar-config/1",
        "k": 2,
        "partition": [[0], [1]],
        "labels": [2, 2],
        "margin_families": ["gaussian", "gaussian"],
    })
    capsys.readouterr()
    assert main(["fit", "--config", fit_cfg, "--data", sim_path,
                 "--out", str(tmp_path / "fitted.json")]) == 0
    assert "did not converge" not in capsys.readouterr().err
    monkeypatch.setattr(estimation, "fit_margin", unconverged)
    assert main(["fit", "--config", fit_cfg, "--data", sim_path,
                 "--out", str(tmp_path / "fitted.json")]) == 0
    assert "warning: at least one optimizer stage did not converge" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["pair", "lag"])
def test_construct_config_whose_cross_fixed_entry_lacks_a_field_is_named_exit_1(tmp_path, capsys,
                                                                                key):
    # a bare KeyError once exited with "error: invalid input: 'lag'"
    doc = construct_config()
    del doc["cross_fixed"][0][key]
    cfg = write_json(tmp_path / "cfg.json", doc)
    assert main(["construct", "--config", cfg, "--out", str(tmp_path / "model.json")]) == 1
    err = capsys.readouterr().err
    assert "error: %s: model field 'cross_fixed' entry 0 has no '%s'" % (cfg, key) in err
    assert "Traceback" not in err
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("command", ["fit", "compare"])
def test_config_whose_margins_entry_lacks_its_family_is_named_exit_1(tmp_path, capsys, command):
    cfg = write_json(tmp_path / "fit.json", _fit_config(margin_families=None, margins=[
        {"family": "gaussian", "params": [0.0, 1.0]}, {"params": [0.0, 1.0]}]))
    configs = ["--config", cfg] * (2 if command == "compare" else 1)
    assert main([command, *configs, "--data", _small_csv(tmp_path),
                 "--out", str(tmp_path / "out.json")]) == 1
    assert ("error: %s: model field 'margins' entry 1 has no 'family'" % cfg
            in capsys.readouterr().err)
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", ["fit", "compare"])
@pytest.mark.parametrize("field, value", [("margin_families", None), ("margins", None),
                                          ("margins", {"family": "gaussian"})])
def test_config_whose_margin_field_is_not_a_list_is_named_exit_1(tmp_path, capsys, command, field,
                                                                 value):
    # a null field once escaped main as "TypeError: 'NoneType' object is not iterable"
    cfg = write_json(tmp_path / "fit.json", dict(_fit_config(margin_families=None),
                                                 **{field: value}))
    configs = ["--config", cfg] * (2 if command == "compare" else 1)
    assert main([command, *configs, "--data", _small_csv(tmp_path),
                 "--out", str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err
    assert "error: %s: model field '%s' must be a list, got %r" % (cfg, field, value) in err
    assert "Traceback" not in err and not (tmp_path / "out.json").exists()


THREE_CONFIG = {
    "format": "mcvar-config/1", "k": 1, "partition": [[0, 1], [2], [3]], "labels": [1, 1, 2],
    "margins": [{"family": "skewt", "params": [0.0, 1.0, 3.0, 5.0]},
                {"family": "gaussian", "params": [0.5, 0.2]},
                {"family": "gaussian", "params": [-0.2, 0.05]},
                {"family": "gaussian", "params": [0.0, 1.0]}],
    "subprocess_corrs": [{"blocks": [[[1.0, 0.3], [0.3, 1.0]], [[0.5, 0.1], [0.0, 0.4]]]},
                         {"blocks": [[[1.0]], [[0.5]]]},
                         {"blocks": [[[1.0]], [[-0.4]]]}],
    "cross_fixed": [{"pair": [0, 1], "lag": 0, "value": [[0.3], [0.2]]},
                    {"pair": [0, 2], "lag": -1, "value": [[0.1], [-0.1]]},
                    {"pair": [1, 2], "lag": -1, "value": [[0.15]]}],
}


@pytest.mark.parametrize("edit, message", [
    (lambda margins: margins.__setitem__(0, None),
     "model field 'margins' entry 0 must be an object, got None"),
    (lambda margins: margins[1].__setitem__("params", [[0.5], 0.2]),
     "model field 'margins' entry 1: margin 'params' must be a flat list of numbers, "
     "got [[0.5], 0.2]"),
    (lambda margins: margins[0].__setitem__("family", ["skewt"]),
     "model field 'margins' entry 0: margin 'family' must be a string, got ['skewt']"),
    (lambda margins: margins[2].__setitem__("params", 0.5),
     "model field 'margins params' entry 2 must be a list, got 0.5"),
    (lambda margins: margins[3].pop("params"), "model field 'margins' entry 3 has no 'params'"),
], ids=["null margin", "nested params", "list family", "number params", "no params"])
def test_model_file_with_a_malformed_margin_is_named_exit_1(tmp_path, capsys, edit, message):
    # each of these once escaped main as a TypeError traceback (a missing key as a bare KeyError)
    cfg = write_json(tmp_path / "three.json", THREE_CONFIG)
    model = tmp_path / "three_model.json"
    assert main(["construct", "--config", cfg, "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    edit(doc["margins"])
    path = write_json(tmp_path / "mutant.json", doc)
    capsys.readouterr()
    assert main(["verify", "--config", path]) == 1
    captured = capsys.readouterr()
    assert "error: %s: %s" % (path, message) in captured.err
    assert "Traceback" not in captured.err and "PASSED" not in captured.out


@pytest.fixture(scope="module")
def three_documents(tmp_path_factory):
    """THREE_CONFIG and the model file that construct writes from it."""
    tmp = tmp_path_factory.mktemp("three")
    model = tmp / "three_model.json"
    assert main(["construct", "--config", write_json(tmp / "three.json", THREE_CONFIG),
                 "--out", str(model)]) == 0
    return {"construct": THREE_CONFIG, "model": json.loads(model.read_text())}


@pytest.mark.parametrize("value", [None, 7, "x"])
@pytest.mark.parametrize("command, field, entry", [
    (command, field, entry) for command in ("verify", "simulate")
    for field, entry in (("crosses", 0), ("crosses", None), ("subprocess_corrs", 1),
                         ("subprocess_corrs", None), ("margins", None))
] + [("construct", field, entry) for field, entry in (
    ("cross_fixed", 2), ("cross_fixed", None), ("subprocess_corrs", 0),
    ("subprocess_corrs", None), ("margins", None))
] + [(command, "names", None) for command in ("construct", "verify")])
def test_a_field_or_entry_of_the_wrong_type_is_named_exit_1(tmp_path, capsys, three_documents,
                                                            command, field, entry, value):
    # a null crosses or subprocess_corrs entry, a crosses entry of 7, a null
    # margins field and names of 7 once escaped main as TypeError tracebacks
    doc = json.loads(json.dumps(three_documents["model" if command != "construct"
                                                else "construct"]))
    if entry is None:
        doc[field] = value
        named = "must be a list, got %r" % (value,)
    else:
        doc[field][entry] = value
        named = "entry %d must be an object, got %r" % (entry, value)
    path = write_json(tmp_path / "mutant.json", doc)
    out = str(tmp_path / ("out.csv" if command == "simulate" else "out.json"))
    extra = {"verify": [], "simulate": ["--length", "20", "--out", out],
             "construct": ["--out", out]}[command]
    assert main([command, "--config", path, *extra]) == 1
    err = capsys.readouterr().err
    assert named in err and "%s: model field '%s'" % (path, field) in err
    assert "Traceback" not in err and not os.path.exists(out)


SKEWT_CONFIG = {  # the skew-t config of the CI workflow
    "format": "mcvar-config/1", "k": 2, "partition": [[0], [1]], "labels": [2, 2],
    "names": ["u", "v"],
    "margins": [{"family": "skewt", "params": [0.850, 0.791, 5.739, 9.344]},
                {"family": "skewt", "params": [-0.032, 0.172, 3.053, 2.738]}],
    "subprocess_corrs": [{"blocks": [[[1.0]], [[-0.8]], [[0.6]]]},
                         {"blocks": [[[1.0]], [[0.6]], [[0.5]]]}],
    "cross_fixed": [{"pair": [0, 1], "lag": 0, "value": [[0.35]]}],
}
_DELETED = object()
_MUTATIONS = (_DELETED, None, "x", 1.5, [], {}, float("nan"), 7, [[1]])


@pytest.fixture(scope="module")
def mutation_documents(tmp_path_factory):
    """(command, document) pairs: the CI configs for construct, the model files construct
    writes from them for verify and simulate, and a fit config that selects and transforms
    columns of a CSV of positive levels, with the directory that holds them."""
    tmp = tmp_path_factory.mktemp("mutants")
    models = []
    for name, config in (("skewt", SKEWT_CONFIG), ("three", THREE_CONFIG)):
        model = tmp / ("%s_model.json" % name)
        assert main(["construct", "--config", write_json(tmp / ("%s.json" % name), config),
                     "--out", str(model)]) == 0
        models.append(json.loads(model.read_text()))
    _positive_csv(tmp, T=60)
    fit = _fit_config(columns=["a", 1], transform=[{"log_diff": 1},
                                                   {"log_diff": 1, "scale_percent": True}])
    docs = [("construct", SKEWT_CONFIG), ("construct", THREE_CONFIG), ("fit", fit)]
    docs += [(command, model) for command in ("verify", "simulate") for model in models]
    return tmp, docs


def _keys(node):
    """Every object key in a JSON document."""
    if isinstance(node, dict):
        return set(node).union(*map(_keys, node.values()))
    return set().union(*map(_keys, node)) if isinstance(node, list) else set()


@st.composite
def _mutant(draw, docs):
    """A (command, document, mutant): one field or entry, at any depth, deleted or replaced."""
    command, doc = draw(st.sampled_from(docs))
    mutant = copy.deepcopy(doc)
    parent, key, depth = mutant, draw(st.sampled_from(sorted(mutant))), draw(st.integers(0, 5))
    for _ in range(depth):
        if not (isinstance(parent[key], (dict, list)) and parent[key]):
            break
        parent = parent[key]
        key = draw(st.sampled_from(sorted(parent) if isinstance(parent, dict)
                                   else range(len(parent))))
    value = draw(st.sampled_from(_MUTATIONS))
    if value is _DELETED:
        del parent[key]
    else:
        parent[key] = copy.deepcopy(value)
    return command, doc, mutant


def test_a_mutated_document_exits_0_1_or_2_and_exit_1_names_its_file_and_field(
        mutation_documents, capsys):
    # a var, a crosses pair, names, a transform or columns of the wrong type once
    # escaped main as a TypeError or AttributeError; some refusals named neither the
    # file nor the field
    tmp, docs = mutation_documents

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(_mutant(docs))
    def check(case):
        command, doc, mutant = case
        path = write_json(tmp / "mutant.json", mutant)
        out = tmp / "out"
        if out.exists():
            out.unlink()
        extra = {"construct": ["--out", str(out)], "verify": [],
                 "simulate": ["--length", "20", "--out", str(out)],
                 "fit": ["--data", str(tmp / "levels.csv"), "--out", str(out)]}[command]
        capsys.readouterr()
        code = main([command, "--config", path, *extra])
        assert code in (0, 1, 2)
        err = capsys.readouterr().err
        if code == 1 and "error:" in err:
            assert err.startswith("error: %s: " % path)
            assert set(re.findall(r"'(\w+)", err)) & _keys(doc), err
            assert not out.exists()

    check()


@pytest.mark.parametrize("command", ["fit", "compare"])
@pytest.mark.parametrize("field, families", [
    ("margin_families", ["gaussian", "skewtt"]),
    ("margin_families", ["gaussian", ["skewt"]]),
    ("margins", ["gaussian", "skewtt"]),
])
def test_a_margin_family_that_is_not_a_family_is_named_before_the_data_are_read(
        tmp_path, capsys, monkeypatch, command, field, families):
    # a misspelt family was once refused by fit_margin, unnamed, after the data were
    # read and the first margin fitted; the data path here does not exist
    monkeypatch.setattr(cli, "fit_model", lambda *args, **kwargs: pytest.fail("fitted"))
    value = families if field == "margin_families" else [
        {"family": f, "params": [0.0, 1.0]} for f in families]
    cfg = write_json(tmp_path / "fit.json", _fit_config(**{"margin_families": None,
                                                            field: value}))
    configs = ["--config", cfg] * (2 if command == "compare" else 1)
    assert main([command, *configs, "--data", str(tmp_path / "absent.csv"),
                 "--out", str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err
    assert ("error: %s: model field '%s' entry 1 must name a margin family (gaussian, skewt), "
            "got %r" % (cfg, field, families[1])) in err
    assert "Traceback" not in err and not (tmp_path / "out.json").exists()


def _positive_csv(tmp_path, T=150):
    """A three-column CSV, a, b and c, of positive levels."""
    levels = np.exp(np.cumsum(0.01 * seeded_normals(4, (3, T)), axis=1))
    data = tmp_path / "levels.csv"
    data.write_text("a,b,c\n" + "".join("%r,%r,%r\n" % tuple(r) for r in levels.T.tolist()))
    return str(data), levels


@pytest.mark.parametrize("second, field", [
    ({"columns": ["b", "c"], "transform": [{"log_diff": 1}, {"log_diff": 1}]}, "columns"),
    ({"columns": ["a", "b"], "transform": [{"log_diff": 1}, {"log_diff": 1}]}, "transform"),
    ({"columns": ["a", "b"]}, "transform"),
])
def test_compare_refuses_configs_that_select_other_observations_exit_1(tmp_path, capsys, second,
                                                                       field):
    # both rows were once fitted to the first config's columns and transforms
    data, _ = _positive_csv(tmp_path)
    first = write_json(tmp_path / "first.json", _fit_config(
        columns=["a", "b"], transform=[{"log_diff": 1}, {"log_diff": 2}]))
    other = write_json(tmp_path / "second.json", _fit_config(**second))
    assert main(["compare", "--config", first, "--config", other, "--data", data,
                 "--out", str(tmp_path / "cmp.json")]) == 1
    assert "error: %s: model field '%s' differs from that of %s" % (other, field, first) \
        in capsys.readouterr().err
    assert not (tmp_path / "cmp.json").exists()


def test_fit_cuts_every_transformed_column_to_the_last_T_minus_2_points(tmp_path, capsys,
                                                                        monkeypatch):
    data, levels = _positive_csv(tmp_path)
    seen, fit = [], cli.fit_model

    def recorded(values, config, stage4=False):
        seen.append(np.array(values))
        return fit(values, config, stage4=stage4)

    monkeypatch.setattr(cli, "fit_model", recorded)
    specs = [{"log_diff": m, "scale_percent": True} for m in (2, 1, 2)]
    cfg = write_json(tmp_path / "fit.json", _fit_config(
        partition=[[0], [1], [2]], labels=[1, 1, 2], margin_families=["gaussian"] * 3,
        transform=specs))
    out = tmp_path / "fitted.json"
    assert main(["fit", "--config", cfg, "--data", data, "--out", str(out)]) == 0
    T = levels.shape[1]
    want = np.vstack([(100.0 * np.diff(np.log(x), n=s["log_diff"]))[-(T - 2):]
                      for x, s in zip(levels, specs)])
    assert len(seen) == 1 and seen[0].shape == (3, T - 2)
    np.testing.assert_array_equal(seen[0], want)
    assert json.loads(out.read_text())["fit"]["T"] == T - 2


def test_fit_with_stage4_prints_the_stage_4_latent_loglik(tmp_path, capsys):
    from mcvar.estimation import ModelConfig, fit_model

    data = _small_csv(tmp_path)
    cfg = write_json(tmp_path / "fit.json", _fit_config())
    assert main(["fit", "--config", cfg, "--data", data, "--stage4",
                 "--out", str(tmp_path / "fitted.json")]) == 0
    config = ModelConfig(partition=closure.Partition(sets=((0,), (1,)), d=2), labels=(2, 2), k=1,
                         margin_families=("gaussian", "gaussian"))
    fm = fit_model(load_csv(data).values, config, stage4=True)
    out = capsys.readouterr().out
    assert "stage 3 latent loglik: %.3f\n" % fm.stage_logliks["stage3"] in out
    assert "stage 4 latent loglik: %.3f\n" % fm.stage_logliks["stage4"] in out


def _constructed_model_doc(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", construct_config())
    assert main(["construct", "--config", cfg, "--out", str(tmp_path / "model.json")]) == 0
    return json.loads((tmp_path / "model.json").read_text())


@pytest.mark.parametrize("command", ["verify", "simulate"])
@pytest.mark.parametrize("edit", [
    lambda var: var["phi"][0][0].__setitem__(0, 7.0),
    lambda var: var["sigma"][0].__setitem__(0, -3.0),
], ids=["phi_1[0, 0] = 7", "sigma[0, 0] = -3"])
def test_full_model_file_whose_var_is_not_its_own_is_named_exit_1(tmp_path, capsys, command,
                                                                  edit):
    # the stored var of a full model file was never read: verify passed this file
    doc = _constructed_model_doc(tmp_path)
    edit(doc["var"])
    path = write_json(tmp_path / "edited.json", doc)
    out = tmp_path / "sim.csv"
    argv = {"verify": ["verify", "--config", path],
            "simulate": ["simulate", "--config", path, "--length", "30", "--out", str(out)]}[command]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert ("error: %s: model field 'var' is not the VAR of the model's correlation blocks"
            % path) in captured.err
    assert "Traceback" not in captured.err
    assert "PASSED" not in captured.out and "FAILED" not in captured.out
    assert not out.exists()


def test_full_model_file_without_its_var_still_loads(tmp_path, capsys):
    doc = _constructed_model_doc(tmp_path)
    path = write_json(tmp_path / "no_var.json", {key: v for key, v in doc.items() if key != "var"})
    assert main(["verify", "--config", path]) == 0
    assert "verification PASSED" in capsys.readouterr().out
    for name, source in (("with.csv", str(tmp_path / "model.json")), ("without.csv", path)):
        assert main(["simulate", "--config", source, "--length", "30", "--seed", "2",
                     "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "with.csv").read_text() == (tmp_path / "without.csv").read_text()
