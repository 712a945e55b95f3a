"""Runs every benchmark workload, each in its own process, for run.sh.

Modes (run.sh passes --binary and --root):
  (default)        one set of timed runs: the end-to-end metrics
  --trace          the traced runs instead: the per-layer metrics
  --trace-out PATH also keep each traced run's spans and merge them into
                   one Chrome trace-event file (implies --trace)
  --quick          every workload at 1/20 of its length, timed and traced,
                   checking that each metric BENCHMARK.json declares is
                   printed, finite and in its declared unit
  --repeat K       K sets of timed runs; for each metric, prints the median
                   of the first and of the second half of the sets and
                   whether they agree within the metric's bound

Every metric prints as `workload metric value unit`. The result, with its
provenance, goes to --out (default build-bench/benchmark-result.json). The
exit code is 1 when an audit fails, a run errs, a quick check misses a
metric or two halves of a repeat disagree.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys


def run_workload(args, workload, seconds, trace, extra=()):
    command = [args.binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(seconds), "--trace", "1" if trace else "0",
               *extra]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    provenance, result = None, None
    for line in lines:
        if line.startswith("# provenance "):
            provenance = json.loads(line[len("# provenance "):])
        elif line.startswith("{"):
            result = json.loads(line)
        else:
            print(line, flush=True)
    ok = proc.returncode == 0 and result is not None and result["correct"]
    if not ok:
        print(f"{workload}: run failed (exit {proc.returncode})", flush=True)
    return ok, provenance, result


def check_declared(workload, result, declared):
    """Names of declared metrics the result lacks or reports wrongly."""
    problems = []
    metrics = result["metrics"] if result else {}
    for metric in declared:
        got = metrics.get(metric["name"])
        if got is None:
            problems.append(f"{workload}: {metric['name']} not printed")
        elif not math.isfinite(got["value"]):
            problems.append(f"{workload}: {metric['name']} is not finite")
        elif got["unit"] != metric["unit"]:
            problems.append(f"{workload}: {metric['name']} has unit "
                            f"{got['unit']}, not {metric['unit']}")
    return problems


def agreement(sets, declared):
    """Per workload and metric: medians of each half and whether they
    agree within the metric's bound."""
    half = len(sets) // 2
    rows = []
    for workload in sets[0]:
        for metric in declared:
            values = [s[workload]["metrics"][metric["name"]]["value"]
                      for s in sets if s.get(workload)]
            if len(values) < 2:
                continue
            first = statistics.median(values[:half])
            second = statistics.median(values[half:])
            change = abs(second - first) / abs(first) if first else math.inf
            rows.append({"workload": workload, "metric": metric["name"],
                         "first": first, "second": second,
                         "bound": metric["bound"],
                         "agree": change <= metric["bound"]})
    return rows


def merge_traces(parts, path):
    events = []
    for pid, (workload, part) in enumerate(parts, start=1):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": workload}})
        with open(part) as f:
            for event in json.load(f)["traceEvents"]:
                event["pid"] = pid
                events.append(event)
        os.remove(part)
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-out")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(args.root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    build = os.path.dirname(os.path.abspath(args.binary))
    out = args.out or os.path.join(build, "benchmark-result.json")
    seconds = args.seconds or bench["run_seconds"]
    trace = args.trace or bool(args.trace_out)

    ok = True
    problems = []
    provenance = None
    sets = []
    if args.quick:
        seconds = seconds / 20
        quick = {}
        for workload in workloads:
            for traced, declared in ((False, bench["end_to_end"]),
                                     (True, bench["per_layer"])):
                extra = () if traced else ("--setup-reps", "1")
                run_ok, provenance, result = run_workload(
                    args, workload, seconds, traced, extra)
                ok &= run_ok
                problems += check_declared(workload, result, declared)
                quick[f"{workload}/{'traced' if traced else 'timed'}"] = result
        sets.append(quick)
    else:
        parts = {}  # workload -> its spans file; a later set overwrites
        for _ in range(args.repeat):
            results = {}
            for workload in workloads:
                extra = ()
                if args.trace_out:
                    parts[workload] = os.path.join(build,
                                                   f"spans-{workload}.json")
                    extra = ("--trace-out", parts[workload])
                run_ok, provenance, results[workload] = run_workload(
                    args, workload, seconds, trace, extra)
                ok &= run_ok
            sets.append(results)
        if args.trace_out:
            merge_traces(parts.items(), args.trace_out)

    rows = []
    if args.repeat >= 2 and not trace:
        rows = agreement(sets, bench["end_to_end"])
        for row in rows:
            verdict = "agree" if row["agree"] else "DISAGREE"
            print(f"repeat {row['workload']} {row['metric']} {row['first']!r}"
                  f" {row['second']!r} {verdict} (bound {row['bound']})")
        ok &= all(row["agree"] for row in rows)
    for problem in problems:
        print(f"quick: {problem}")
    ok &= not problems

    if provenance is not None:
        provenance = {k: v for k, v in provenance.items()
                      if k not in ("workload", "trace")}
    with open(out, "w") as f:
        json.dump({"schema": "ooc.benchmark.v1", "provenance": provenance,
                   "trace": trace, "quick": args.quick, "sets": sets,
                   "repeat": rows, "problems": problems, "ok": ok},
                  f, indent=1)
    print(f"result written to {out}: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
