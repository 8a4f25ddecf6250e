#!/usr/bin/env python3
"""Record a pinned benchmark set into the committed perf trajectory.

Runs the pinned google-benchmark binaries (bench_permission,
bench_translate, bench_query_batch, bench_prefilter, bench_projection by
default) and appends
one entry per bench to the root-level ``BENCH_<name>.json`` trajectory
files:

    {
      "bench": "permission",
      "unit": "ns",
      "entries": [
        {
          "sha": "<git rev-parse HEAD>[+dirty]",
          "date": "2026-08-09T12:00:00Z",
          "host": "<cpu model> x<cores>",
          "scale": 0.02,
          "repetitions": 5,
          "seed": "0xc7db",
          "metrics": {"BM_Ticket_NestedDfs_Seeds": 1234.5, ...}
        },
        ...
      ]
    }

Metrics are per-benchmark median real times in nanoseconds (plain real time
when --repetitions=1). Entries are append-only: the history *is* the
product — ``compare_bench.py`` gates CI on it, and the committed files
document the hot path's trajectory PR by PR. Entries carry a host
fingerprint because absolute times are only comparable on the same machine;
compare_bench.py pairs each entry with the most recent prior entry from the
same host.

Usage:
    tools/perf/record_bench.py [--build-dir build] [--repetitions 5]
                               [--scale 0.02] [--benches permission,...]
                               [--output-dir .]
"""

import argparse
import datetime
import json
import os
import subprocess
import sys
import tempfile

DEFAULT_BENCHES = ["permission", "translate", "query_batch", "prefilter",
                   "projection"]


def repo_root():
    return os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))


def git_sha(root):
    """HEAD's sha, with "+dirty" when tracked files differ from HEAD (an
    entry measured on uncommitted changes, e.g. the after half of a pair)."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        sha = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
        return sha + "+dirty" if dirty else sha
    except (subprocess.CalledProcessError, FileNotFoundError):
        return "unknown"


def host_fingerprint():
    model = "unknown-cpu"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.lower().startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"{model} x{os.cpu_count() or 0}"


def run_bench(binary, repetitions, scale, env_extra):
    cmd = [binary, "--benchmark_format=json"]
    if repetitions > 1:
        cmd += [f"--benchmark_repetitions={repetitions}",
                "--benchmark_report_aggregates_only=true"]
    env = dict(os.environ)
    env["CTDB_BENCH_SCALE"] = str(scale)
    env.update(env_extra)
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{binary} exited with {proc.returncode}")
    # The pinned seed line goes to stderr; surface it so recorded runs are
    # visibly tied to their dataset.
    for line in proc.stderr.splitlines():
        if "seed" in line.lower():
            print(f"  {line.strip()}")
    return json.loads(proc.stdout)


def extract_metrics(report, repetitions):
    """run_name -> median real_time (ns) from a gbench JSON report."""
    metrics = {}
    for bench in report.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            if bench.get("aggregate_name") != "median":
                continue
            name = bench.get("run_name", bench["name"])
        else:
            if repetitions > 1:
                continue  # aggregates-only mode should not reach here
            name = bench["name"]
        if bench.get("time_unit", "ns") != "ns":
            continue
        metrics[name] = bench["real_time"]
    return metrics


def append_entry(path, bench_name, entry):
    trajectory = {"bench": bench_name, "unit": "ns", "entries": []}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            trajectory = json.load(f)
    trajectory["entries"].append(entry)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(trajectory, f, indent=2, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--benches", default=",".join(DEFAULT_BENCHES),
                        help="comma-separated bench names (without bench_)")
    parser.add_argument("--repetitions", type=int, default=5)
    parser.add_argument("--scale", default=os.environ.get(
        "CTDB_BENCH_SCALE", "0.02"))
    parser.add_argument("--output-dir", default=None,
                        help="where the BENCH_<name>.json files live "
                             "(default: repo root)")
    args = parser.parse_args()

    root = repo_root()
    out_dir = args.output_dir or root
    sha = git_sha(root)
    host = host_fingerprint()
    date = datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ")
    seed = os.environ.get("CTDB_BENCH_SEED", "0xc7db")

    failures = 0
    for bench in [b.strip() for b in args.benches.split(",") if b.strip()]:
        binary = os.path.join(args.build_dir, "bench", f"bench_{bench}")
        if not os.path.isabs(binary):
            binary = os.path.join(root, binary)
        if not os.path.exists(binary):
            print(f"error: {binary} not built", file=sys.stderr)
            failures += 1
            continue
        print(f"recording bench_{bench} "
              f"(scale={args.scale}, reps={args.repetitions})")
        # Obs metrics snapshots are per-run noise — keep them out of the
        # committed trajectory directory.
        with tempfile.TemporaryDirectory() as scratch:
            report = run_bench(binary, args.repetitions, args.scale,
                               {"CTDB_BENCH_METRICS_DIR": scratch})
        metrics = extract_metrics(report, args.repetitions)
        if not metrics:
            print(f"error: bench_{bench} produced no metrics",
                  file=sys.stderr)
            failures += 1
            continue
        entry = {
            "sha": sha,
            "date": date,
            "host": host,
            "scale": float(args.scale),
            "repetitions": args.repetitions,
            "seed": seed,
            "metrics": metrics,
        }
        path = os.path.join(out_dir, f"BENCH_{bench}.json")
        append_entry(path, bench, entry)
        print(f"  {len(metrics)} metrics -> {os.path.relpath(path, root)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
