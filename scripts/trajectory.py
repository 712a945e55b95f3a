#!/usr/bin/env python3
"""Append one bench run to a committed trajectory file.

The trajectory files at the repo root (BENCH_simcore.json, BENCH_fd.json,
BENCH_recovery.json) track one headline metric per bench commit over
commit; bench.sh appends an entry after each run and prints a WARNING when
the metric regressed >10% against the previous entry of the same mode
(quick and full runs are compared separately — trial counts differ).

Usage: trajectory.py RUN_JSON TRAJ_JSON COMMIT QUICK MODE

MODE picks the metric(s) and their polarity:
  simcore   events/sec gauges per scenario        (higher is better)
            plus E23 aggregate_events_per_sec per thread count (higher is
            better) and scaling_efficiency per thread count (recorded,
            not regression-checked: it is a ratio of two wall-clock
            passes, so its noise floor is the product of both)
  fd        mean rounds_to_decide per pairing     (lower is better)
  recovery  mean ticks_to_decide per label set    (lower is better)
  svc       committed cmds/ktick per engine (E21) (higher is better)
  roundless mean rounds per valid E24 cell        (lower is better)

Each new entry also records the build type (from build/CMakeCache.txt,
where bench.sh builds) and the hardware thread count, so entries from
different builds or machines are not mistaken for regressions. A run that
cannot be attributed — an empty, "unknown" or "working-tree" COMMIT, or a
run JSON without a run_id — is skipped with a warning instead of appended.
"""
import json
import os
import sys


def label_key(labels):
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items()))


def gauge_series(metrics, name, label):
    return {
        g["labels"][label]: round(g["value"], 3 if name.endswith("efficiency")
                                  else 1)
        for g in metrics.get("gauges", [])
        if g.get("name") == name
    }


def extract(run, mode):
    """Return [(field, values, regression_checked), ...] for MODE."""
    metrics = run.get("metrics", {})
    if mode == "simcore":
        return [
            ("events_per_sec",
             gauge_series(metrics, "simcore_events_per_sec", "scenario"),
             True),
            ("aggregate_events_per_sec",
             gauge_series(metrics, "simcore_aggregate_events_per_sec",
                          "threads"),
             True),
            ("scaling_efficiency",
             gauge_series(metrics, "simcore_scaling_efficiency", "threads"),
             False),
        ]
    if mode == "svc":
        return [("committed_cmds_per_ktick",
                 gauge_series(metrics, "svc_mean_commands_per_ktick",
                              "engine"),
                 True)]
    if mode == "roundless":
        # The E24 ooc.matrix.v2 document is a matrix, not an ooc.bench.v1
        # run: the headline series is mean rounds-to-decide per valid
        # decided (engine, policy) cell. Rejected cells have no number to
        # track.
        return [("mean_rounds", {
            f"{c['detector']}+{c['driver']}@{c['policy']}":
                round(c["mean_rounds"], 2)
            for c in run.get("cells", [])
            if c.get("valid") and c.get("decided")
        }, True)]
    name = "rounds_to_decide" if mode == "fd" else "ticks_to_decide"
    return [(f"mean_{name}", {
        label_key(h.get("labels", {})): round(h["sum"] / h["count"], 2)
        for h in metrics.get("histograms", [])
        if h.get("name") == name and h.get("count")
    }, True)]


def build_type():
    """CMAKE_BUILD_TYPE of the build/ tree the bench binaries came from."""
    cache = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                         "build", "CMakeCache.txt")
    try:
        with open(cache) as lines:
            for line in lines:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    # Empty: the project default set in CMakeLists.txt.
                    return line.split("=", 1)[1].strip() or "RelWithDebInfo"
    except OSError:
        pass
    return "unknown"


def main():
    run_path, traj_path, commit, quick, mode = (sys.argv + [""] * 6)[1:6]
    if mode not in ("simcore", "fd", "recovery", "svc", "roundless"):
        sys.exit(f"trajectory.py: unknown mode '{mode}'")
    higher_is_better = mode in ("simcore", "svc")

    run = json.load(open(run_path))
    run_id = run.get("run_id", "")
    if commit in ("", "unknown", "working-tree") or not run_id:
        print(f"WARNING: {mode} trajectory: not appending run "
              f"'{run_id}' of commit '{commit}' to {traj_path} "
              f"(needs a commit id and a run_id)", file=sys.stderr)
        return
    fields = extract(run, mode)
    entry = {
        "run_id": run_id,
        "commit": commit,
        "quick": bool(quick),
        "build_type": build_type(),
        "hardware_threads": os.cpu_count() or 0,
    }
    for field, values, _ in fields:
        if values:
            entry[field] = values
    try:
        trajectory = json.load(open(traj_path))
    except (OSError, ValueError):
        trajectory = {"schema": f"ooc.{mode}-trajectory.v1", "entries": []}

    previous = next((e for e in reversed(trajectory["entries"])
                     if e.get("quick") == entry["quick"]), None)
    regressed = []
    if previous:
        for field, values, checked in fields:
            if not checked:
                continue
            for key, now in values.items():
                before = previous.get(field, {}).get(key)
                if not before:
                    continue
                if higher_is_better and now < 0.9 * before:
                    regressed.append(
                        f"{field} {key}: {before:,.0f} -> {now:,.0f} "
                        f"({100 * (1 - now / before):.1f}% slower)")
                elif not higher_is_better and now > 1.1 * before:
                    regressed.append(
                        f"{field} {key}: {before:,.2f} -> {now:,.2f} "
                        f"({100 * (now / before - 1):.1f}% more)")
    trajectory["entries"].append(entry)
    with open(traj_path, "w") as out:
        json.dump(trajectory, out, indent=1)
        out.write("\n")
    print(f"{mode} trajectory: appended run {entry['run_id'][:12]} "
          f"(commit {commit}) to {traj_path}")
    for line in regressed:
        print(f"WARNING: {mode} regression — {line}", file=sys.stderr)


if __name__ == "__main__":
    main()
