"""The defzero benchmark.

    python3 perfbench/run.py --workload window|dense|report \
        --seed N --seconds T --trace 0|1

Run it from the root of a source checkout: it imports the program from
./src and checks every output against its own oracle.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; the line before it records the run (machine, revision, request
counts, how the oracle certified its answers).  With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones from a traced
replay.  See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import oracle
import workloads
from check import Checker, tally
from stats import tail
from worker import stolen_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = ".bench_work"
SETUP_REPS = 3
DEADLINE_S = 170.0  # the whole run, set-up and checking included
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); from defzero.cli import main; "
    "sys.exit(main(sys.argv[1:]))"
)


def _revision() -> dict:
    """The git commit when there is one, and a digest of src/ either way."""
    commit = None
    if os.path.isdir(".git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk("src"):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(path.encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def _setup(op: dict, env: dict, deadline: float) -> tuple[float, dict]:
    """Seconds, net of steal, for a fresh interpreter to import defzero and
    serve op."""
    stolen0 = stolen_seconds()
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, *workloads.argv(op)],
        capture_output=True, text=True, env=env, timeout=max(1.0, deadline - started),
    )
    seconds = time.perf_counter() - started
    stolen = stolen_seconds() - stolen0
    return seconds - stolen, {"op": op, "phase": "setup", "exit": proc.returncode,
                              "stdout": proc.stdout, "stderr": proc.stderr,
                              "seconds": seconds, "stolen_seconds": stolen}


def _rounds(measured: list[dict]) -> dict[int, list]:
    """[networks, seconds, stolen seconds] of each round's requests."""
    per_round: dict[int, list] = {}
    for rec in measured:
        sums = per_round.setdefault(rec["round"], [0, 0.0, 0.0])
        sums[0] += workloads.networks(rec["op"])
        sums[1] += rec["seconds"]
        sums[2] += rec["stolen_seconds"]
    return per_round


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    deadline = time.perf_counter() + DEADLINE_S

    if not os.path.isfile(os.path.join("src", "defzero", "__init__.py")):
        print("run.py: no src/defzero here; run from the root of a defzero checkout",
              file=sys.stderr)
        return 2
    try:
        problems = oracle.self_check(os.path.join("tests", "data"))
    except OSError as exc:
        print(f"run.py: cannot read the oracle's fixtures: {exc}", file=sys.stderr)
        return 2
    if problems:
        print("run.py: the oracle fails its self-check: " + "; ".join(problems), file=sys.stderr)
        return 2

    work = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ)
    threads = env.pop("DEFZERO_THREADS", None)  # measure the default users get
    records = []
    setup_times = []
    try:
        if not args.trace:
            op = workloads.setup_op(args.workload, work)
            if op["kind"] == "analyze":
                workloads.write_file(op)
            for _ in range(SETUP_REPS):
                seconds, rec = _setup(op, env, deadline)
                setup_times.append(seconds)
                records.append(rec)

        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--workdir", work],
            capture_output=True, text=True, env=env,
            timeout=max(1.0, deadline - time.perf_counter() - 20.0),
        )
        if proc.returncode != 0:
            print(f"run.py: the worker exited with {proc.returncode}:\n{proc.stderr}",
                  file=sys.stderr)
            return 1
        with open(os.path.join(work, "requests.jsonl"), encoding="utf-8") as fh:
            records.extend(json.loads(line) for line in fh)
        with open(os.path.join(work, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        if args.trace:
            os.replace(os.path.join(work, "spans.json"),
                       os.path.join(WORK_ROOT, f"spans-{args.workload}-{args.seed}.json"))
    except subprocess.TimeoutExpired as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct, failures = tally(records, Checker())

    measured = [rec for rec in records if rec["phase"] == "measure"]
    wall = summary["wall_s"]
    if args.trace:
        traced_networks = sum(workloads.networks(r["op"]) for r in records if r["phase"] == "traced")
        overhead = summary["traced_wall_s"] - wall
        values = dict(summary["layers"])
        values["experiments.cpu_per_wall"] = summary["cpu_s"] / wall
        values["trace.overhead_pct"] = 100.0 * overhead / wall
        values["trace.overhead_ms"] = 1e3 * overhead / traced_networks
    else:
        # Times are net of steal: on a shared host the hypervisor withholds
        # the vCPU for seconds at a time, which once made a fixed loop's wall
        # time 2.3 times its CPU time.  Steal is counted in 10-ms ticks, so a
        # short request is charged its round's share of it, not its own ticks.
        rounds = _rounds(measured)
        if args.workload == "report":
            # A request is one analyze call.
            latencies = []
            for rec in measured:
                _, seconds, stolen = rounds[rec["round"]]
                latencies.append(rec["seconds"] * (1.0 - stolen / seconds) * 1e3)
        else:
            # A request is one round: the round's sweep calls together.
            latencies = [(seconds - stolen) * 1e3 for _, seconds, stolen in rounds.values()]
        values = {
            # Total over total, not a median over rounds: the host's speed
            # also swings without steal, and a median jumps between speeds
            # while a total moves with the time spent at each.
            "networks_per_s": (sum(c for c, _, _ in rounds.values())
                               / sum(s - st for _, s, st in rounds.values())),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": summary["peak_rss_kb"] / 1024.0,
            "report_ms_p50": statistics.median(latencies),
            "report_ms_tail": tail(latencies),
        }
    metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}

    print(json.dumps({"run": {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": summary["rounds"],
        "requests_measured": len(measured),
        "failures": failures[:10],
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__},
        "revision": _revision(),
        "defzero_threads_set": threads is not None,
        "oracle": dataclasses.asdict(oracle.STATS),
    }}))
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": len(failures), "metrics": metrics}))
    return 0


UNITS = {
    "networks_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "report_ms_p50": "ms",
    "report_ms_tail": "ms",
    "rng.seed_us": "us",
    "sampler.sample_ms": "ms",
    "sampler.edges": "count",
    "network.build_ms": "ms",
    "network.components_ms": "ms",
    "network.deficiency_self_ms": "ms",
    "network.complexes": "count",
    "network.components": "count",
    "exactrank.calls": "count",
    "exactrank.us_per_call": "us",
    "exactrank.rank_self_ms": "ms",
    "exactrank.modp_ms": "ms",
    "exactrank.bareiss_ms": "ms",
    "exactrank.bareiss_calls": "count",
    "exactrank.modp_certified_ratio": "ratio",
    "exactrank.cols_per_call": "count",
    "exactrank.rows_per_call": "count",
    "experiments.trial_ms_p50": "ms",
    "experiments.trial_ms_tail": "ms",
    "experiments.shortcircuit_ratio": "ratio",
    "experiments.cpu_per_wall": "ratio",
    "netparse.parse_ms": "ms",
    "cli.overhead_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.overhead_ms": "ms",
}


if __name__ == "__main__":
    sys.exit(main())
