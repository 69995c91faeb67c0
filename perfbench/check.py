"""Checks each request's output against the oracle.

``verdict`` returns None for a correct output, ("failed", why) for a request
that exited non-zero or printed a traceback, and ("wrong", why) for an
output the oracle rejects.  Both count as failed operations; only the second
makes the run incorrect.
"""

from __future__ import annotations

import json

import oracle
import workloads


class Checker:
    def __init__(self) -> None:
        self._answers: dict[tuple, object] = {}

    def _answer(self, key, compute):
        if key not in self._answers:
            self._answers[key] = compute()
        return self._answers[key]

    def verdict(self, rec: dict) -> tuple[str, str] | None:
        if rec["exit"] != 0:
            return "failed", f"exit code {rec['exit']}: {rec['stderr'].strip()[-300:]}"
        if "Traceback" in rec["stderr"]:
            return "failed", "traceback on stderr"
        try:
            rows = json.loads(rec["stdout"])["rows"]
        except (ValueError, KeyError, TypeError):
            return "wrong", "output is not a JSON table with rows"
        op = rec["op"]
        try:
            why = self._sweep(op, rows) if op["kind"] == "sweep" else self._analyze(op, rows)
        except (KeyError, TypeError, IndexError) as exc:
            why = f"malformed row: {exc!r}"
        return None if why is None else ("wrong", why)

    def _sweep(self, op: dict, rows: list) -> str | None:
        grid = sorted(set(op["grid"]))
        if [row["n"] for row in rows] != grid:
            return f"rows for n={[row['n'] for row in rows]}, expected {grid}"
        trials = op["trials"]
        for row in rows:
            n = row["n"]
            key = ("sweep", n, op["c"], op["beta"], trials, op["seed"])
            want = self._answer(key, lambda: oracle.sweep_successes(
                n, op["c"], op["beta"], trials, op["seed"]))
            if row["trials"] != trials:
                return f"n={n}: trials {row['trials']}, expected {trials}"
            if row["p"] != oracle.sweep_p(op["c"], op["beta"], n):
                return f"n={n}: p {row['p']!r}"
            if row["successes"] != want:
                return f"n={n}: successes {row['successes']}, oracle {want}"
            if row["estimate"] != want / trials:
                return f"n={n}: estimate {row['estimate']!r}, expected {want / trials!r}"
            if not row["ci_low"] <= row["estimate"] <= row["ci_high"]:
                return f"n={n}: estimate outside [{row['ci_low']}, {row['ci_high']}]"
        return None

    def _analyze(self, op: dict, rows: list) -> str | None:
        key = ("analyze", op["n"], op["c"], op["seed"])
        want = self._answer(key, lambda: oracle.report(
            [(s, d) for s, d, _ in workloads.crn_reactions(op["n"], op["c"], op["seed"])]))
        row = rows[0]
        got = oracle.Report(
            num_complexes=row["num_complexes"],
            num_components=row["num_components"],
            rank=row["rank"],
            deficiency=row["deficiency"],
            components=tuple(sorted(
                (c["complex_count"], c["rank"], c["deficiency"]) for c in row["components"])),
            is_paired=row["is_paired"],
        )
        if got == want:
            return None
        diff = [f for f in ("num_complexes", "num_components", "rank", "deficiency",
                            "components", "is_paired") if getattr(got, f) != getattr(want, f)]
        return f"{op['path']}: {', '.join(diff)} differ from the oracle"


def tally(records: list[dict], checker: Checker) -> tuple[bool, list[str]]:
    """Whether no output was wrong, and one line per failed request."""
    correct, failures = True, []
    for rec in records:
        v = checker.verdict(rec)
        if v is not None:
            correct = correct and v[0] != "wrong"
            failures.append(f"{rec['phase']} {' '.join(workloads.argv(rec['op']))}: {v[1]}")
    return correct, failures
