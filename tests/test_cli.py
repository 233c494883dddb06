"""End-to-end tests of the command line interface."""

import csv
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mcvar.cli import CliError, Dataset, load_csv, main, transform


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


def test_load_csv_error_messages(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("a,b\n1,2\n3\n")
    with pytest.raises(CliError, match="line 3"):
        load_csv(str(f))
    f.write_text("a,b\n1,NA\n")
    with pytest.raises(CliError, match="missing value at line 2"):
        load_csv(str(f))
    f.write_text("a,b\n1,x2\n")
    with pytest.raises(CliError, match="not a number"):
        load_csv(str(f))
    f.write_text("a,b\n1,2\n")
    with pytest.raises(CliError, match="not found"):
        load_csv(str(f), columns=["z"])
    with pytest.raises(CliError, match="out of range"):
        load_csv(str(f), columns=[5])
    f.write_text("")
    with pytest.raises(CliError, match="empty"):
        load_csv(str(f))
    with pytest.raises(CliError, match="cannot read"):
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


def test_construct_non_pd_subprocess_exit_2(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "cfg.json",
        construct_config(k=1, blocks1=[1.0, 1.0], blocks2=[1.0, 0.2], c0=0.1),
    )
    assert main(["construct", "--config", cfg, "--out", str(tmp_path / "m.json")]) == 2
    assert "sub-process 0" in capsys.readouterr().err


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


def test_tables_unknown_name(capsys):
    assert main(["tables", "t99"]) == 1
    assert "unknown table" in capsys.readouterr().err
