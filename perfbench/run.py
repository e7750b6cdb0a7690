#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        Build the benchmark (Release, in perfbench/.build) if needed, run
        one workload and pass its output through. The last line of
        standard output is the result JSON.

    python3 perfbench/run.py steady [--workloads a,b] [--runs 10]
                                    [--seconds S] [--out F]
        The steadiness check: run two sets of `runs` untraced runs of
        every workload, interleaved, each run with its own seed (set 1:
        seeds 1..runs, set 2: the next `runs`), and report per metric
        and workload each set's median and quartiles, the spread
        (interquartile distance over the median) and the shift of the
        second set's median from the first's, against the bounds in
        BENCHMARK.json. Exits 1 when the sets disagree.

Run from the repository root.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, ".build")
WORK = os.path.join(HERE, ".work")
BINARY = os.path.join(BUILD, "perfbench")
SETS = 2
FIRST_SEED = 1


def build():
    """Configure once, then bring the build up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "harness", "runner.cc")):
        sys.exit("perfbench: no simulator sources next to the benchmark "
                 "(expected ../src); run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def run_once(args):
    """Run the benchmark binary; return (exit code, stdout)."""
    proc = subprocess.run([BINARY] + args + ["--work-dir", WORK],
                          stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def steady(argv):
    import argparse
    spec = load_spec()
    ap = argparse.ArgumentParser(prog="run.py steady")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out")
    opts = ap.parse_args(argv)
    metrics = spec["end_to_end"]
    workloads = opts.workloads.split(",")

    # results[workload][set] = list of parsed result objects
    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for r in range(opts.runs):
        for w in workloads:
            for s in range(SETS):
                seed = FIRST_SEED + s * opts.runs + r
                code, out = run_once(["--workload", w, "--seed", str(seed),
                                      "--seconds", str(opts.seconds),
                                      "--trace", "0"])
                lines = out.strip().splitlines()
                if code != 0 or not lines:
                    sys.exit("perfbench: run failed: %s seed %d" % (w, seed))
                res = json.loads(lines[-1])
                results[w][s].append(res)
                print("%-14s set %d seed %3d: %s" % (
                    w, s, seed, " ".join(
                        "%s=%.4g" % (m["name"],
                                     res["metrics"][m["name"]]["value"])
                        for m in metrics)), file=sys.stderr, flush=True)

    report = {"seconds": opts.seconds, "runs": opts.runs, "sets": SETS,
              "workloads": {}}
    agree = True
    for w in workloads:
        rows = {}
        shares = [sum(x["failed"] for x in runs) /
                  sum(x["attempted"] for x in runs) for runs in results[w]]
        correct = all(x["correct"] for runs in results[w] for x in runs)
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = [summarize([x["metrics"][name]["value"] for x in runs])
                    for runs in results[w]]
            for st in sets:
                st["within_bound"] = st["spread"] <= bound
            base, second = sets[0]["median"], sets[1]
            shift = (second["median"] - base) / base
            worse = shift if m["better"] == "lower" else -shift
            second["shift"] = shift
            second["shift_within_bound"] = worse <= bound
            ok = (all(st["within_bound"] for st in sets) and
                  second["shift_within_bound"])
            rows[name] = {"bound": bound, "agree": ok, "sets": sets}
            agree = agree and ok
        same_share = len(set(shares)) == 1
        agree = agree and same_share and correct
        report["workloads"][w] = {"failed_share": shares,
                                  "correct": correct, "metrics": rows}

    print("%-14s %-12s %6s  %s" % ("workload", "metric", "bound",
                                    "per set: median [q1, q3] spread"))
    for w, wr in report["workloads"].items():
        for name, row in wr["metrics"].items():
            cells = []
            for st in row["sets"]:
                cell = "%.4g [%.4g, %.4g] %.1f%%" % (
                    st["median"], st["q1"], st["q3"], 100 * st["spread"])
                if "shift" in st:
                    cell += " shift %+.1f%%" % (100 * st["shift"])
                cells.append(cell)
            print("%-14s %-12s %5.0f%%  %s  %s" % (
                w, name, 100 * row["bound"], " | ".join(cells),
                "agree" if row["agree"] else "DISAGREE"))
        print("%-14s failed share per set: %s, correct: %s" % (
            w, wr["failed_share"], wr["correct"]))
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(report, f, indent=1)
    return 0 if agree else 1


def main():
    argv = sys.argv[1:]
    build()
    if argv[:1] == ["steady"]:
        return steady(argv[1:])
    code, out = run_once(argv)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
