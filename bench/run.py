"""mcvar benchmark: one workload per process, a closed loop of operations.

Run from the repository root:

    python3 bench/run.py --workload paper_k2 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

One run builds its inputs from ``--seed`` (see ``workloads.py``), then
repeats a cycle of operations, one at a time, until ``--seconds`` have
passed and at least MIN_CYCLES cycles are done:

    construct x CLI_REPEATS   (``mcvar.cli.main(["construct", ...])`` in-process)
    verify    x CLI_REPEATS   (``mcvar.cli.main(["verify", ...])`` in-process)
    simulate                  (``simulate_model``)
    fit                       (``fit_model`` on a replicate)

Every output is checked (``checks.py``) outside the timed regions.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: with ``--trace 0`` the end-to-end metrics of
BENCHMARK.json, measured with no tracing; with ``--trace 1`` its per-layer
metrics, from spans recorded by ``tracer.py``, per cycle.  The line before
it is the run record (machine, versions, sizes, sample counts); both are
also written to ``.bench_out/``.

``--smoke`` runs every workload at toy sizes in both modes, checks the
output schema against BENCHMARK.json and feeds known-bad results to the
checks.  ``spread.py`` repeats runs over seeds and summarises them.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings

_T_START = time.perf_counter()

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"

# One BLAS thread per process: the matrices are small except in the
# Lyapunov solve, and a single thread keeps runs on a shared machine steady.
BLAS_THREADS = 1
CLI_REPEATS = 5
MIN_CYCLES = 5
# fit_loglik_mean averages the first LOGLIK_FITS fits, so it is a fixed
# function of the seed rather than of how many fits the time allowed.
LOGLIK_FITS = 5
# setup_s is the median of the run's own set-up and this many fresh
# processes that do nothing but set up.
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 170
# Machine speed on a shared host drifts by +-20% over tens of seconds.  Every
# timed operation is followed by a fixed speed probe, and its wall time is
# scaled by REF_PROBE_S / (mean of the probes just before and just after it):
# a reported time is the time the operation takes when the probe takes
# REF_PROBE_S, the probe's median on a shared 2-core Intel Xeon virtual
# machine with one BLAS thread.  Unscaled medians stay in the run record.
PROBE_ITERS = 1500
REF_PROBE_S = 0.0045
CLAMP_MESSAGE = "clamped at the PIT boundary"


# (sim_T, fit_T) for --smoke: every code path, a fraction of the work.
TINY_SIZES = {"paper_k2": (300, 300), "mixed_k1_stage4": (300, 300), "scale_k3_d19": (2000, 300)}


def _pin_blas():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _benchmark_spec():
    with open("BENCHMARK.json") as fh:
        return json.load(fh)


def _rep_seed(seed, i):
    return seed * 1_000_003 + i


# -- set-up -----------------------------------------------------------------------

class Session:
    """Imported modules, built inputs and scratch files of one run."""

    def __init__(self, workload, seed, tiny):
        root = os.getcwd()
        if not os.path.isfile(os.path.join(root, "src", "mcvar", "__init__.py")):
            raise SystemExit("bench: run from a checkout holding src/mcvar (cwd is %s)" % root)
        sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "tests"), BENCH_DIR]
        import numpy as np
        import mcvar
        from mcvar import cli, estimation

        if not os.path.abspath(mcvar.__file__).startswith(os.path.join(root, "src") + os.sep):
            raise SystemExit("bench: imported mcvar from %s, not from this checkout" % mcvar.__file__)
        import checks
        import workloads

        self.np, self.cli, self.estimation = np, cli, estimation
        self.checks, self.workloads = checks, workloads
        w = workloads.build(workload, seed)
        if tiny:
            import dataclasses

            sim_T, fit_T = TINY_SIZES[workload]
            w = dataclasses.replace(w, sim_T=sim_T, fit_T=fit_T)
        self.w, self.seed = w, seed
        self.shared_replicate = w.sim_model is w.fit_truth and w.sim_T == w.fit_T
        self.truth_params = workloads.dependence_params(w.fit_truth)
        self.workdir = os.path.join(root, OUT_DIR, "work-%s-%d-%d" % (workload, seed, os.getpid()))
        os.makedirs(self.workdir, exist_ok=True)
        self.config_path = os.path.join(self.workdir, "config.json")
        self.model_path = os.path.join(self.workdir, "model.json")
        with open(self.config_path, "w") as fh:
            json.dump(workloads.config_doc(w.sim_model), fh)

    def warm_up(self):
        """First call of every entry point, on the real config or a short series."""
        for argv in (["construct", "--config", self.config_path, "--out", self.model_path],
                     ["verify", "--config", self.model_path]):
            with contextlib.redirect_stdout(io.StringIO()):
                if self.cli.main(argv) != 0:
                    raise RuntimeError("warm-up of %s failed" % argv[0])
        # A whole fit would add seconds of steady-state work; one likelihood
        # evaluation reaches the same margin, closure and kernel code.
        truth = self.w.fit_truth
        x = self.estimation.simulate_model(truth, 60, _rep_seed(self.seed, 10**6))
        self.estimation.loglik_full(x, truth.margins, truth.time_major_R(), truth.k)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def speed_probe(np):
    """Seconds taken by a fixed mix of bytecode and small NumPy calls, the
    kind of work the package itself does."""
    a = np.linspace(0.0, 1.0, 64).reshape(8, 8)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(PROBE_ITERS):
        acc += float(a[i & 7] @ a[(i + 3) & 7])
        acc += sum([j * j for j in range(16)])
    return time.perf_counter() - t0


def set_up(workload, seed, tiny):
    """Set up one run; returns (session, seconds since the process started)."""
    sess = Session(workload, seed, tiny)
    sess.warm_up()
    return sess, time.perf_counter() - _T_START


def setup_probe_seconds(workload, seed, tiny):
    """Set-up time of one fresh process that only sets up."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"] + (["--tiny"] if tiny else [])
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


# -- the closed loop ------------------------------------------------------------

class Runner:
    """Runs cycles, times operations and collects check results."""

    def __init__(self, sess, tracer=None):
        self.s = sess
        self.tracer = tracer
        self.probes = [speed_probe(sess.np)]
        self.ops = []           # [op, start, seconds, probe before, probe after, correct]
        self.attempted = 0
        self.failures = []
        self.fits = []          # (loglik, parameters within tolerance) of each correct fit, in order
        self.first_fit = None   # (data, fitted model) for the oracle check
        self.first_sim = None   # (rep seed, series) for the resimulation checks
        self.pairs = []         # (traced entry, untraced entry) per paired fit
        self.cycles = 0
        self.clamp_warnings = 0

    def _span(self, label):
        return self.tracer.span(label) if self.tracer else contextlib.nullcontext()

    def _tracing(self, on):
        if self.tracer:
            self.tracer.enabled = on

    def _timed(self, op, fn):
        """Run fn once, timed; returns (output, entry in self.ops).  An
        exception is a failed operation and returns (None, None)."""
        self.attempted += 1
        count_warnings = self.tracer is not None and self.tracer.enabled
        catcher = warnings.catch_warnings(record=True) if count_warnings else contextlib.nullcontext()
        try:
            with self._span("bench." + op), catcher as caught:
                if count_warnings:
                    warnings.simplefilter("always")
                t0 = time.perf_counter()
                out = fn()
                dt = time.perf_counter() - t0
            if count_warnings:
                self.clamp_warnings += sum(CLAMP_MESSAGE in str(c.message) for c in caught)
        except Exception:
            self._tracing(False)
            self.failures.append((op, traceback.format_exc(limit=3)))
            return None, None
        self.probes.append(speed_probe(self.s.np))
        self.ops.append([op, t0, dt, len(self.probes) - 2, len(self.probes) - 1, True])
        return out, len(self.ops) - 1

    def _check(self, entry, problems):
        if problems:
            self.failures.append((self.ops[entry][0], "; ".join(problems)))
            self.ops[entry][5] = False
        return not problems

    def scaled(self, entry):
        """Seconds of one operation at the reference speed."""
        _, _, dt, before, after, _ = self.ops[entry]
        return dt * REF_PROBE_S / (0.5 * (self.probes[before] + self.probes[after]))

    def times(self, scaled=True):
        """Seconds of every correct operation, by kind."""
        out = {"construct": [], "verify": [], "simulate": [], "fit": []}
        for entry, (op, _, dt, _, _, ok) in enumerate(self.ops):
            if ok:
                out[op].append(self.scaled(entry) if scaled else dt)
        return out

    def _cli(self, op, argv):
        buf = io.StringIO()

        def call():
            with contextlib.redirect_stdout(buf):
                return self.s.cli.main(argv)

        rc, entry = self._timed(op, call)
        if rc is None:
            return
        self._tracing(False)
        problems = [] if rc == 0 else ["exit code %d" % rc]
        if op == "construct" and rc == 0:
            with open(self.s.model_path) as fh:
                problems += self.s.checks.model_file_problems(json.load(fh), self.s.w.sim_model)
        if op == "verify" and "verification PASSED" not in buf.getvalue():
            problems.append("no 'verification PASSED' in the output")
        self._check(entry, problems)

    def _fit_once(self, data, traced):
        self._tracing(traced)
        w = self.s.w
        fm, entry = self._timed("fit", lambda: self.s.estimation.fit_model(data, w.fit_config, stage4=w.stage4))
        self._tracing(False)
        if fm is None or not self._check(entry, self.s.checks.fit_problems(fm, data, w.fit_config.k)):
            return None, None
        return fm, entry

    def cycle(self):
        s, w, i = self.s, self.s.w, self.cycles
        rep = _rep_seed(s.seed, i)
        traced = self.tracer is not None
        self._tracing(traced)
        for _ in range(CLI_REPEATS):
            self._cli("construct", ["construct", "--config", s.config_path, "--out", s.model_path])
            self._tracing(traced)
        for _ in range(CLI_REPEATS):
            self._cli("verify", ["verify", "--config", s.model_path])
            self._tracing(traced)
        x, entry = self._timed("simulate", lambda: s.estimation.simulate_model(w.sim_model, w.sim_T, rep))
        self._tracing(False)
        if x is not None:
            ok = x.shape == (w.sim_model.partition.d, w.sim_T) and bool(s.np.all(s.np.isfinite(x)))
            if self._check(entry, [] if ok else ["simulated series has the wrong shape or non-finite values"]):
                if self.first_sim is None:
                    self.first_sim = (rep, x)
        data = x if s.shared_replicate else s.estimation.simulate_model(w.fit_truth, w.fit_T, rep)
        if data is None:
            return
        if not traced:
            fm, _ = self._fit_once(data, False)
        else:
            # Paired fits of the same replicate, alternating which goes first:
            # their ratio is the tracing overhead, and their results must agree.
            order = (True, False) if i % 2 else (False, True)
            got = {on: self._fit_once(data, on) for on in order}
            (fm, on), (plain, off) = got[True], got[False]
            if fm is not None and plain is not None:
                self.pairs.append((on, off))
                if fm.loglik != plain.loglik or fm.stage_logliks != plain.stage_logliks:
                    self.failures.append(("fit", "traced fit differs from the untraced fit"))
                    fm = None
        if fm is None:
            return
        gaps = s.np.abs(s.workloads.dependence_params(fm.model) - s.truth_params)
        self.fits.append((fm.loglik, int(s.np.sum(gaps <= w.recovery_tol))))
        if self.first_fit is None:
            self.first_fit = (data, fm.model)

    def run(self, seconds, min_cycles):
        deadline = time.perf_counter() + seconds
        while self.cycles < min_cycles or time.perf_counter() < deadline:
            self.cycle()
            self.cycles += 1
        self._tracing(False)

    def run_checks(self):
        """Once-per-run checks; returns {name: (value, limit, passed)}."""
        s, w = self.s, self.s.w
        out = {}
        if self.first_fit is not None:
            gap = float(s.checks.oracle_gap(*self.first_fit))
            out["oracle_gap"] = (gap, s.checks.ORACLE_TOL, gap <= s.checks.ORACLE_TOL)
        else:
            out["oracle_gap"] = (None, s.checks.ORACLE_TOL, False)
        if self.first_sim is not None:
            rep, x = self.first_sim
            again = s.estimation.simulate_model(w.sim_model, w.sim_T, rep)
            same = bool(s.np.array_equal(x, again))
            out["resimulation_identical"] = (same, True, same)
            gap, tol = s.checks.sample_correlation_gap(x, w.sim_model)
            out["sample_corr_gap"] = (gap, tol, bool(gap <= tol))
        else:
            out["resimulation_identical"] = (None, True, False)
            out["sample_corr_gap"] = (None, None, False)
        return out


# -- metrics ----------------------------------------------------------------------

def tail_percentile(n):
    """Highest whole percentile with at least 10 of n samples above it, not
    below the median (so with fewer than 20 samples it is the median)."""
    return max(50, math.floor(100.0 * (1.0 - 10.0 / n))) if n else 50


def end_to_end(runner, setup_samples, peak_rss_mb):
    np = runner.s.np
    t = runner.times()
    first = [ll for ll, _ in runner.fits[:LOGLIK_FITS]]
    n_fit = len(t["fit"])
    fit_attempts = n_fit + sum(op == "fit" for op, _ in runner.failures)
    # Per parameter rather than per fit: about 25 all-or-nothing fits per run
    # make a share whose spread over seeds nears its bound.
    estimates = fit_attempts * runner.s.truth_params.size

    def med(xs):
        return statistics.median(xs) if xs else None

    return {
        "setup_s": statistics.median(setup_samples),
        "fit_s_p50": med(t["fit"]),
        "fit_s_tail": float(np.percentile(t["fit"], tail_percentile(n_fit))) if n_fit else None,
        "fit_loglik_mean": statistics.fmean(first) if first else None,
        "recovery_frac": sum(hits for _, hits in runner.fits) / estimates if estimates else None,
        "simulate_s_p50": med(t["simulate"]),
        "construct_s_p50": med(t["construct"]),
        "verify_s_p50": med(t["verify"]),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": (runner.attempted - len(runner.failures)) / runner.attempted,
    }


def per_layer(runner):
    from tracer import MINIMIZE

    tr, n = runner.tracer, runner.cycles
    kernel = "estimation.gaussian_var_loglik"
    m = {}

    def count(name, label):
        m[name + ".calls"] = tr.calls(label) / n

    def secs(name, label, key="ns"):
        m[name + (".s" if key == "ns" else ".self_s")] = tr.seconds(label, key) / n

    def per_call(name, label):
        calls = tr.calls(label)
        m[name + ".us_per_call"] = 1e6 * tr.seconds(label) / calls if calls else 0.0

    for name, label in (("estimation.kernel", kernel),
                        ("linalg.gaussian_condition", "linalg.gaussian_condition"),
                        ("closure.solve_cross_pair", "closure.solve_cross_pair"),
                        ("margins.fit_margin", "margins.fit_margin"),
                        ("varprocess.durbin_levinson", "varprocess.durbin_levinson")):
        count(name, label)
        secs(name, label)
    per_call("estimation.kernel", kernel)
    per_call("closure.solve_cross_pair", "closure.solve_cross_pair")
    for stage in (2, 3, 4):
        scope, name = "estimation.fit_stage%d" % stage, "estimation.stage%d" % stage
        nfev = tr.in_scope(scope, MINIMIZE, "nfev")
        kernel_calls = tr.in_scope(scope, kernel, "calls")
        secs(name, scope)
        m[name + ".nfev"] = nfev / n
        m[name + ".nit"] = tr.in_scope(scope, MINIMIZE, "nit") / n
        m[name + ".kernel_calls"] = kernel_calls / n
        m[name + ".unconverged"] = tr.in_scope(scope, MINIMIZE, "unconverged") / n
        if stage > 2:
            m[name + ".builds"] = tr.in_scope(scope, "closure.assemble_full_R", "calls") / n
            m[name + ".closure_s"] = tr.in_scope(scope, "closure.solve_cross_pair", "ns") / n
            m[name + ".barrier_share"] = 1.0 - kernel_calls / nfev if nfev else 0.0
    m["closure.solve_cross_pair.degenerate"] = tr.errors("closure.solve_cross_pair", "DegenerateCrossPair") / n
    for label in ("closure.assemble_full_R", "closure.reorder_time_major", "closure.verify_closure",
                  "margins.pit_to_normal", "margins.from_normal", "varprocess.implied_autocov",
                  "varprocess.simulate", "varprocess.sample_statistics"):
        secs(label, label)
    m["margins.fit_margin.nfev"] = tr.in_scope("margins.fit_margin", MINIMIZE, "nfev") / n
    m["margins.pit_clamp_warnings"] = runner.clamp_warnings / n
    secs("cli.construct", "cli.cmd_construct", "self_ns")
    secs("cli.verify", "cli.cmd_verify", "self_ns")
    ratios = [runner.scaled(on) / runner.scaled(off) for on, off in runner.pairs]
    m["trace.overhead_frac"] = statistics.median(ratios) - 1.0 if ratios else None
    return m


# -- run record -----------------------------------------------------------------

def _git_state():
    """(sha, dirty) when the current directory is the top of a git work tree."""
    def git(*args):
        return subprocess.run(["git", *args], capture_output=True, text=True, timeout=30)

    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath("."):
            return None, None
        sha = git("rev-parse", "HEAD").stdout.strip() or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no").stdout.strip())
        return sha, dirty
    except (OSError, subprocess.SubprocessError):
        return None, None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_version(np):
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError, AttributeError):
        return None


def _src_lines():
    total = 0
    for base, _, files in os.walk("src"):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(base, f)) as fh:
                    total += sum(1 for _ in fh)
    return total


def run_record(sess, args, runner, setup_samples, checks_out):
    import scipy

    np = sess.np
    sha, dirty = _git_state()
    raw = runner.times(scaled=False)
    return {
        "workload": sess.w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "params": sess.w.params(),
        "cycles": runner.cycles,
        "samples": {op: len(v) for op, v in raw.items()},
        "fit_tail_percentile": tail_percentile(len(raw["fit"])),
        "loglik_fits": min(LOGLIK_FITS, len(runner.fits)),
        "fits_all_recovered": sum(hits == sess.truth_params.size for _, hits in runner.fits),
        "setup_samples_s": setup_samples,
        "raw_p50_s": {op: statistics.median(v) if v else None for op, v in raw.items()},
        "speed_probe_s": {"ref": REF_PROBE_S, "median": statistics.median(runner.probes)},
        "checks": {k: {"value": v, "limit": lim, "passed": ok} for k, (v, lim, ok) in checks_out.items()},
        "failures": [{"op": op, "detail": d} for op, d in runner.failures],
        "machine": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "cpu_model": _cpu_model(),
        },
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "openblas": _blas_version(np),
        },
        "blas_threads": BLAS_THREADS,
        "git_sha": sha,
        "git_dirty": dirty,
        "src_lines": _src_lines(),
    }


# -- entry points -----------------------------------------------------------------

def run(args, spec):
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sess, own_setup = set_up(args.workload, args.seed, args.tiny)
    try:
        setup_samples = [own_setup]
        if not args.trace:
            setup_samples += [setup_probe_seconds(args.workload, args.seed, args.tiny)
                              for _ in range(SETUP_PROBES)]
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        runner = Runner(sess, tracer)
        try:
            runner.run(args.seconds, 1 if args.tiny else MIN_CYCLES)
        finally:
            if tracer:
                tracer.restore()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checks_out = runner.run_checks()
        values = per_layer(runner) if args.trace else end_to_end(runner, setup_samples, peak_rss_mb)
        record = run_record(sess, args, runner, setup_samples, checks_out)
    finally:
        sess.close()

    metrics = {}
    for entry in wanted:
        v = values[entry["name"]]
        metrics[entry["name"]] = {"value": None if v is None or not math.isfinite(v) else float(v),
                                  "unit": entry["unit"]}
    failed = len(runner.failures)
    correct = (failed == 0 and all(ok for _, _, ok in checks_out.values())
               and all(m["value"] is not None for m in metrics.values()))
    result = {"correct": correct, "attempted": runner.attempted, "failed": failed, "metrics": metrics}
    stem = os.path.join(OUT_DIR, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    with open(stem + ".json", "w") as fh:
        json.dump({"record": record, "result": result, "ops": runner.ops, "probes": runner.probes}, fh)
    if tracer:
        tracer.dump(stem + "-spans.json.gz")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


def main(argv=None):
    spec = _benchmark_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="toy-size self-test of every workload and check")
    p.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    _pin_blas()
    if args.smoke:
        import smoke

        return smoke.main(Session)
    if args.workload is None:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be a non-negative integer")
    if args.setup_probe:
        sess, seconds = set_up(args.workload, args.seed, args.tiny)
        sess.close()
        print(json.dumps({"setup_s": seconds}))
        return 0
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
