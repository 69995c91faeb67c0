"""Runs one workload's requests through defzero.cli.main, all in this process.

    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1 --workdir DIR

It imports the program from ./src, makes one warm-up request, then repeats
whole rounds and stops at the round boundary nearest to T seconds.  With --trace 1 every request runs
twice, untraced and then traced, so the two passes time the same requests.
Each request becomes one JSON line in
DIR/requests.jsonl, written between requests.  DIR/summary.json gets the
process figures, and with --trace 1 the per-layer metrics; the spans go to
DIR/spans.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import workloads

_TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def stolen_seconds() -> float:
    """Seconds the host has so far withheld from this virtual machine's
    vCPUs while they had work (the steal column of /proc/stat), or 0 where
    the kernel does not report it."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / _TICKS_PER_S
    except (OSError, IndexError, ValueError):
        return 0.0


def load_program():
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    from defzero import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"defzero was imported from {cli.__file__}, not from {src}")
    return cli


def call(cli, op: dict, phase: str, round_index: int) -> dict:
    out, err = io.StringIO(), io.StringIO()
    args = workloads.argv(op)
    stolen0 = stolen_seconds()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        code = 1
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - t0
    return {"op": op, "phase": phase, "round": round_index, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "seconds": seconds,
            "cpu_seconds": time.process_time() - cpu0,
            "stolen_seconds": stolen_seconds() - stolen0}


def prepare(ops: list[dict]) -> None:
    for op in ops:
        if op["kind"] == "analyze":
            workloads.write_file(op)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    cli = load_program()

    with open(os.path.join(args.workdir, "requests.jsonl"), "w", encoding="utf-8") as log:
        def record(rec):
            # Keep only the timings here, so the outputs do not add to this
            # process's memory.
            log.write(json.dumps(rec) + "\n")
            log.flush()
            return rec["seconds"] - rec["stolen_seconds"], rec["cpu_seconds"]

        warm = workloads.setup_op(args.workload, args.workdir)
        prepare([warm])
        record(call(cli, warm, "warmup", -1))

        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        rounds = 0
        measured, traced = [], []
        started = time.perf_counter()
        while True:
            # Stop at the round boundary nearest to --seconds: a window
            # round lasts seconds, and overshooting by a whole one would
            # lengthen every run without need.
            elapsed = time.perf_counter() - started
            if rounds and elapsed + elapsed / rounds / 2 >= args.seconds:
                break
            ops = workloads.round_ops(args.workload, args.seed, rounds, args.workdir)
            prepare(ops)
            for op in ops:
                measured.append(record(call(cli, op, "measure", rounds)))
                if tracer is not None:
                    # Each request runs untraced, then traced, so that the
                    # machine's slow spells fall on both passes alike.
                    restore = tracing.install(tracer)
                    try:
                        traced.append(record(call(cli, op, "traced", rounds)))
                    finally:
                        restore()
            rounds += 1
        summary = {
            "rounds": rounds,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "wall_s": sum(wall for wall, _ in measured),
            "cpu_s": sum(cpu for _, cpu in measured),
        }
        if tracer is not None:
            summary["traced_wall_s"] = sum(wall for wall, _ in traced)
            summary["layers"] = tracing.layer_metrics(tracer)
            tracer.write(os.path.join(args.workdir, "spans.json"))

    with open(os.path.join(args.workdir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
