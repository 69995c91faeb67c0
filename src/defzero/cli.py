"""Command-line interface.

    defzero analyze FILE [--format text|json]
    defzero sample --n N --p P --seed S [--emit-network PATH] [--format text|json]
    defzero sweep --n-grid 20,40,80 --c 1 --beta 3.5 --trials 2000 --seed 7
    defzero experiment (isolated|four-species|matrix-indep|
                        paired-given-defzero) ... [--format csv|json]
    defzero experiment exact-small --n N --p P [--format text|json]

Each command handler turns its parsed arguments into one OutputRecord; only
main formats it (JSON for --format json, otherwise the command's renderer:
the CSV estimate table, the text report or the exact value) and writes it
to stdout or --out.  Output paths are opened before the handler runs.

Exit codes: 0 success, 1 usage or configuration error (an output path that
cannot be written and a negative seed included, both refused before any
trial), 2 input-data error (a network file that is not UTF-8 or does not
parse).  An invalid configuration is reported as one `defzero: <message>`
line on stderr.  Estimate tables go to stdout or --out as CSV (default) or
JSON; every output embeds the configuration that produced it, so any table
can be regenerated from its own header.  CSV output starts with a single `#`
comment line carrying that configuration.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass

from .experiments import (
    ErTrialConfig,
    EstimateRow,
    IsolatedTailSpec,
    SweepSpec,
    estimate_four_species_given_paired,
    estimate_isolated_tail,
    estimate_matrix_independence,
    estimate_paired_given_def_zero,
    exact_def_zero_prob_small,
    sweep_threshold,
)
from .netparse import (
    NetworkParseError,
    document_from_network,
    parse_network,
    serialize_network,
    to_reaction_network,
)
from .rng import derive_seed
from .sampler import sample_er_network

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; 2 is reserved for input-data
    # errors here, so route usage problems to exit code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@dataclass
class OutputRecord:
    """One self-describing result table."""

    command: str
    config: dict
    rows: list[dict]
    schema_version: str = SCHEMA_VERSION

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True)  # the four fields above

    def to_csv(self, columns: list[str]) -> str:
        header = (
            f"# schema_version={self.schema_version} command={self.command} "
            f"config={json.dumps(self.config, sort_keys=True)}"
        )
        lines = [header, ",".join(columns)]
        for row in self.rows:
            lines.append(
                ",".join("" if row.get(c) is None else repr(row.get(c)) for c in columns)
            )
        return "\n".join(lines) + "\n"


_ESTIMATE_COLUMNS = [
    "n", "p", "trials", "successes", "estimate", "ci_low", "ci_high", "wall_time_ms",
]


def _emit(text: str, out_path: str | None, mode: str = "w") -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:  # an unwritable output path is a configuration error
        raise ValueError(f"cannot write {out_path}: {exc}") from exc


def _render_estimates(record: OutputRecord) -> str:
    """The CSV table of EstimateRow dicts; the k and conditioning_count
    columns appear when some row carries them."""
    cols = list(_ESTIMATE_COLUMNS)
    if any("k" in row for row in record.rows):
        cols.insert(1, "k")
    if any("conditioning_count" in row for row in record.rows):
        cols.insert(-1, "conditioning_count")
    return record.to_csv(cols)


def render_report(record: OutputRecord) -> str:
    """Human-readable deficiency report from the record's one row, a
    DeficiencyReport.to_dict()."""
    report = record.rows[0]
    if report["num_complexes"] == 0:
        return "empty network, deficiency: 0\n"
    lines = [
        f"complexes: {report['num_complexes']}",
        f"components: {report['num_components']}",
        f"rank: {report['rank']}",
        f"deficiency: {report['deficiency']}",
        f"paired: {'yes' if report['is_paired'] else 'no'}",
        "component  complexes  rank  deficiency",
    ]
    for i, comp in enumerate(report["components"], start=1):
        lines.append(
            f"{i:<9}  {comp['complex_count']:<9}  {comp['rank']:<4}  {comp['deficiency']}"
        )
    return "\n".join(lines) + "\n"


def _render_exact(record: OutputRecord) -> str:
    return f"{record.rows[0]['exact_probability']!r}\n"


def _estimates(command: str, config: dict, rows: list[EstimateRow]) -> OutputRecord:
    return OutputRecord(command=command, config=config, rows=[r.to_dict() for r in rows])


def _cmd_analyze(args) -> OutputRecord:
    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {args.path}: {exc}") from exc
    report = to_reaction_network(parse_network(text)).deficiency()
    return OutputRecord("analyze", {"path": args.path}, [report.to_dict()])


def _cmd_sample(args) -> OutputRecord:
    net = sample_er_network(ErTrialConfig(args.n, args.p, args.seed))
    report = net.deficiency()
    if args.emit_network:
        _emit(serialize_network(document_from_network(net)), args.emit_network)
    config = {"n": args.n, "p": args.p, "seed": args.seed}
    return OutputRecord("sample", config, [report.to_dict()])


def _parse_grid(raw: str) -> tuple[int, ...]:
    try:
        grid = tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {raw!r}")
    if not grid:
        raise argparse.ArgumentTypeError("the grid is empty")
    return grid


def _cmd_sweep(args) -> OutputRecord:
    spec = SweepSpec(
        n_grid=args.n_grid,
        c=args.c,
        beta=args.beta,
        trials=args.trials,
        master_seed=args.seed,
    )
    rows = sweep_threshold(spec)
    config = {
        "n_grid": list(spec.n_grid),
        "c": spec.c,
        "beta": spec.beta,
        "trials": spec.trials,
        "seed": spec.master_seed,
    }
    return _estimates("sweep", config, rows)


def _cmd_isolated(args) -> OutputRecord:
    grid = sorted(set(args.n_grid))
    specs = [  # every row is checked before the first trial runs
        IsolatedTailSpec(n, args.alpha, args.trials, derive_seed(args.seed, n))
        for n in grid
    ]
    rows = [estimate_isolated_tail(spec) for spec in specs]
    config = {"n_grid": grid, "alpha": args.alpha, "trials": args.trials, "seed": args.seed}
    return _estimates("experiment isolated", config, rows)


def _cmd_k_estimate(args) -> OutputRecord:
    # four-species and matrix-indep: args.estimator(n, k, trials, seed)
    row = args.estimator(args.n, args.k, args.trials, args.seed)
    config = {"n": args.n, "k": args.k, "trials": args.trials, "seed": args.seed}
    return _estimates(f"experiment {args.experiment}", config, [row])


def _cmd_paired(args) -> OutputRecord:
    row = estimate_paired_given_def_zero(
        ErTrialConfig(args.n, args.p, args.seed), args.trials
    )
    config = {"n": args.n, "p": args.p, "trials": args.trials, "seed": args.seed}
    return _estimates("experiment paired-given-defzero", config, [row])


def _cmd_exact_small(args) -> OutputRecord:
    value = exact_def_zero_prob_small(args.n, args.p)
    return OutputRecord(
        "experiment exact-small",
        {"n": args.n, "p": args.p},
        [{"n": args.n, "p": args.p, "exact_probability": value}],
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: every subcommand costs
    about 2 ms to build.  parse_args leaves it unchanged, so calls share it."""
    parser = _Parser(
        prog="defzero",
        description="Random binary reaction networks: exact deficiency and "
        "threshold experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Arguments shared by every Monte Carlo estimate command.
    estimate = argparse.ArgumentParser(add_help=False)
    estimate.add_argument("--trials", type=int, required=True)
    estimate.add_argument("--seed", type=int, default=0)
    estimate.add_argument("--out", metavar="PATH")
    estimate.add_argument("--format", choices=["csv", "json"], default="csv")
    estimate.set_defaults(render=_render_estimates)

    p_analyze = sub.add_parser("analyze", help="deficiency report for a network file")
    p_analyze.add_argument("path")
    p_analyze.add_argument("--format", choices=["text", "json"], default="text")
    p_analyze.set_defaults(func=_cmd_analyze, render=render_report)

    p_sample = sub.add_parser("sample", help="sample one network and report it")
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--p", type=float, required=True)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--emit-network", metavar="PATH")
    p_sample.add_argument("--format", choices=["text", "json"], default="text")
    p_sample.set_defaults(func=_cmd_sample, render=render_report)

    p_sweep = sub.add_parser(
        "sweep", parents=[estimate], help="deficiency-zero probability sweep"
    )
    p_sweep.add_argument("--n-grid", type=_parse_grid, required=True)
    p_sweep.add_argument("--c", type=float, default=1.0)
    p_sweep.add_argument("--beta", type=float, required=True)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_exp = sub.add_parser("experiment", help="estimators for specific structure laws")
    exp_sub = p_exp.add_subparsers(dest="experiment", required=True)

    e_isolated = exp_sub.add_parser(
        "isolated", parents=[estimate], help="tail of the isolated-vertex count"
    )
    e_isolated.add_argument("--n-grid", type=_parse_grid, required=True)
    e_isolated.add_argument(
        "--alpha", type=float, default=None, help="defaults to alpha = n per grid point"
    )
    e_isolated.set_defaults(func=_cmd_isolated)

    for name, estimator, text in (
        ("four-species", estimate_four_species_given_paired,
         "all reaction vectors touch four species, under pairing"),
        ("matrix-indep", estimate_matrix_independence,
         "column independence of sampled sign matrices"),
    ):
        e_k = exp_sub.add_parser(name, parents=[estimate], help=text)
        e_k.add_argument("--n", type=int, required=True)
        e_k.add_argument("--k", type=int, required=True)
        e_k.set_defaults(func=_cmd_k_estimate, estimator=estimator)

    e_paired = exp_sub.add_parser(
        "paired-given-defzero", parents=[estimate],
        help="paired fraction among deficiency-zero draws",
    )
    e_paired.add_argument("--n", type=int, required=True)
    e_paired.add_argument("--p", type=float, required=True)
    e_paired.set_defaults(func=_cmd_paired)

    e_exact = exp_sub.add_parser(
        "exact-small", help="exact deficiency-zero probability for n in {1, 2}"
    )
    e_exact.add_argument("--n", type=int, choices=[1, 2], required=True)
    e_exact.add_argument("--p", type=float, required=True)
    e_exact.add_argument("--out", metavar="PATH")
    e_exact.add_argument("--format", choices=["text", "json"], default="text")
    e_exact.set_defaults(func=_cmd_exact_small, render=_render_exact)

    return parser


def _open_outputs(args) -> None:
    """Opens every output path before the command runs a trial.  Appending
    nothing creates a missing file and leaves an existing one as it is until
    the result replaces it."""
    for path in (getattr(args, "out", None), getattr(args, "emit_network", None)):
        if path is not None:
            _emit("", path, mode="a")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        _open_outputs(args)
        record = args.func(args)
        text = record.to_json() + "\n" if args.format == "json" else args.render(record)
        _emit(text, getattr(args, "out", None))
    # both are ValueErrors, so they are caught first; only analyze reads a file
    except (NetworkParseError, UnicodeDecodeError) as exc:
        print(f"defzero: {args.path}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"defzero: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
