"""Toy-size self-test of the benchmark (``python3 bench/run.py --smoke``).

1. BENCHMARK.json has the shape the runner relies on.
2. Every workload runs at toy sizes with ``--trace 0`` and ``--trace 1`` and
   prints a result whose keys, metric names and units match BENCHMARK.json.
3. The output checks reject known-bad fits, model files and series.
4. The tracer wraps the binding sites it must and restores every one.

Not part of the test suite: it takes about a minute.
"""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _fail(msg):
    raise AssertionError(msg)


def check_spec(spec):
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        _fail("BENCHMARK.json keys: %s" % sorted(spec))
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    if len(names) != len(set(names)) or not all(NAME.match(n) for n in names):
        _fail("metric and workload names must be unique and well formed")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            _fail("bad unit or direction: %s" % m)
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            _fail("bad end-to-end entry: %s" % m)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        _fail("setup_s must be an end-to-end metric in s, lower is better")
    if setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        _fail("setup_s must have the largest bound")


def check_result(line, wanted, end_to_end):
    result = json.loads(line)
    if set(result) != RESULT_KEYS:
        _fail("result keys: %s" % sorted(result))
    if result["correct"] is not True or result["failed"] != 0:
        _fail("run not correct: %s" % line)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        _fail("attempted must be a whole number >= 1")
    got = result["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        _fail("metric names differ: %s" % sorted(set(got) ^ {m["name"] for m in wanted}))
    for m in wanted:
        entry = got[m["name"]]
        value = entry.get("value")
        if set(entry) != {"value", "unit"} or entry["unit"] != m["unit"]:
            _fail("bad metric entry %s: %s" % (m["name"], entry))
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            _fail("metric %s is not a finite number: %r" % (m["name"], value))
        # Toy series are too short for recovery to mean anything.
        if end_to_end and value == 0 and m["name"] != "recovery_frac":
            _fail("end-to-end metric %s is 0" % m["name"])


def run_workloads(spec):
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, script, "--workload", w["name"], "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            if out.returncode != 0:
                _fail("%s exited %d:\n%s" % (" ".join(cmd), out.returncode, out.stderr[-2000:]))
            last = out.stdout.strip().splitlines()[-1]
            check_result(last, spec["per_layer"] if trace else spec["end_to_end"], not trace)
            print("smoke: %s trace=%d ok" % (w["name"], trace))


def check_checks(sess):
    """Every check passes a correct input and rejects a broken one."""
    from mcvar.closure import CrossSolution
    from mcvar.cli import model_file_dict
    from mcvar.estimation import FittedModel

    checks, est = sess.checks, sess.estimation
    truth = sess.w.fit_truth
    k = truth.k
    x = est.simulate_model(truth, 2000, 7)
    ll = est.loglik_full(x, truth.margins, truth.time_major_R(), k)
    good = FittedModel(model=truth, loglik=ll, n_params=0, aic=0.0, bic=0.0, margin_fits=(),
                       sub_fits=(), stage_logliks={"stage2": [-1.0, -1.0], "stage3": -1.0},
                       converged=True)
    if checks.fit_problems(good, x, k):
        _fail("a correct fit was rejected: %s" % checks.fit_problems(good, x, k))
    tripled = tuple(CrossSolution(pair=c.pair, order=c.order, blocks=tuple(3.0 * b for b in c.blocks))
                    for c in truth.crosses)
    bad = {
        "nan loglik": dataclasses.replace(good, loglik=float("nan")),
        "barrier stage value": dataclasses.replace(good, stage_logliks={"stage2": [-1e9, -1.0], "stage3": -1.0}),
        "stale loglik": dataclasses.replace(good, loglik=ll + 1e-3),
        "non-PD model": dataclasses.replace(good, model=dataclasses.replace(truth, crosses=tripled)),
    }
    for what, fm in bad.items():
        if not checks.fit_problems(fm, x, k):
            _fail("fit check missed: %s" % what)

    doc = model_file_dict(truth)
    if checks.model_file_problems(doc, truth):
        _fail("a correct model file was rejected")
    doc["crosses"][0]["blocks"][k][0][0] += 1e-6
    if not checks.model_file_problems(doc, truth):
        _fail("model file check missed a changed cross block")

    if checks.oracle_gap(x, truth) > checks.ORACLE_TOL:
        _fail("likelihood disagrees with the dense oracle")
    gap, tol = checks.sample_correlation_gap(x, truth)
    if gap > tol:
        _fail("sample correlations of the true model rejected: %.3g > %.3g" % (gap, tol))
    independent = dataclasses.replace(
        truth, crosses=tuple(CrossSolution(pair=c.pair, order=c.order, blocks=tuple(0.0 * b for b in c.blocks))
                             for c in truth.crosses))
    gap, tol = checks.sample_correlation_gap(est.simulate_model(independent, 2000, 7), truth)
    if gap <= tol:
        _fail("sample correlations of a model without cross dependence passed")
    print("smoke: checks ok")


def check_tracer(sess):
    import scipy.optimize
    from tracer import Tracer

    import mcvar

    def wrapped():
        mods = [m for n, m in sys.modules.items() if n == "mcvar" or n.startswith("mcvar.")]
        hits = ["%s.%s" % (m.__name__, a) for m in mods for a, o in vars(m).items()
                if getattr(o, "__wrapped_by_bench_tracer__", False)]
        if getattr(scipy.optimize.minimize, "__wrapped_by_bench_tracer__", False):
            hits.append("scipy.optimize.minimize")
        return hits

    truth = sess.w.fit_truth
    x = sess.estimation.simulate_model(truth, 200, 3)
    tracer = Tracer()
    with tracer:
        hits = set(wrapped())
        for site in ("mcvar.estimation.solve_cross_pair", "mcvar.estimation.gaussian_var_loglik",
                     "mcvar.cli.verify_closure", "mcvar.closure.solve_cross_pair",
                     "mcvar.fit_model", "scipy.optimize.minimize"):
            if site not in hits:
                _fail("tracer did not wrap %s" % site)
        tracer.enabled = True
        mcvar.estimation.loglik_full(x, truth.margins, truth.time_major_R(), truth.k)
        tracer.enabled = False
    if wrapped():
        _fail("tracer left wrappers behind: %s" % wrapped())
    if tracer.calls("estimation.gaussian_var_loglik") != 1 or tracer.calls("margins.pit_to_normal") != truth.partition.d:
        _fail("tracer counts are wrong: %s" % dict(tracer.stats))
    print("smoke: tracer ok")


def main(session_factory):
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    check_spec(spec)
    sess = session_factory("paper_k2", 1, True)
    try:
        check_checks(sess)
        check_tracer(sess)
    finally:
        sess.close()
    run_workloads(spec)
    print("smoke: OK")
    return 0
