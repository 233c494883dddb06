"""Repeat benchmark runs over seeds and report each metric's spread.

    python3 bench/spread.py --workload paper_k2 --seeds 1-10 [--trace 0] [--out FILE]

Runs ``run.py`` once per seed, one process at a time, from the repository
root.  For each metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median, next to the metric's bound.  With
``--out`` it writes the per-run values and the summary as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else None, "n": len(values)}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--out", help="write runs and summary to this JSON file")
    args = p.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    defs = {m["name"]: m for m in (spec["per_layer"] if args.trace else spec["end_to_end"])}
    runs = []
    for seed in args.seeds:
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, RUN, "--workload", args.workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(args.trace)],
                             capture_output=True, text=True, timeout=600)
        wall = time.perf_counter() - t0
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            raise SystemExit("seed %d: exit code %d" % (seed, out.returncode))
        lines = out.stdout.strip().splitlines()
        result, record = json.loads(lines[-1]), json.loads(lines[-2])["record"]
        runs.append({"seed": seed, "wall_s": wall, "result": result, "record": record})
        print("seed %d: correct=%s attempted=%d failed=%d wall %.1fs"
              % (seed, result["correct"], result["attempted"], result["failed"], wall), flush=True)
    summary = {}
    for name, d in defs.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        if len(values) < 2 or any(v is None for v in values):
            continue
        s = summarize(values)
        summary[name] = s
        bound = d.get("bound")
        flag = ""
        if bound is not None and s["spread"] is not None:
            flag = "ok" if s["spread"] < bound / 3 else ("within bound" if s["spread"] <= bound else "OVER BOUND")
        print("%-40s median %-12.6g q1 %-12.6g q3 %-12.6g spread %-8.4f %s %s"
              % (name, s["median"], s["q1"], s["q3"], s["spread"] or 0.0,
                 "bound %.2f" % bound if bound is not None else "", flag))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "trace": args.trace, "seconds": seconds,
                       "summary": summary, "runs": runs}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
