"""Tests of the benchmark's own parts: the oracle, the output checks and the
tracer.  Run with ``python -m pytest perfbench/tests`` from the repository
root."""

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from check import Checker, tally  # noqa: E402
from stats import tail  # noqa: E402


def _fraction_rank(vectors, species):
    rows = [[Fraction(v.get(s, 0)) for v in vectors] for s in species]
    rank = 0
    for col in range(len(vectors)):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _run_cli(argv):
    from defzero import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_oracle_self_check_on_fixtures():
    assert oracle.self_check(ROOT / "tests" / "data") == []


def test_exact_rank_against_fractions():
    rng = np.random.default_rng(5)
    paths = oracle.RankStats()
    before = oracle.STATS
    oracle.STATS = paths
    try:
        for _ in range(300):
            species = list(range(1, int(rng.integers(2, 7))))
            vectors = []
            for _ in range(int(rng.integers(1, 9))):
                support = rng.choice(species, size=min(len(species), 3), replace=False)
                vectors.append({int(s): int(x) for s, x in zip(support, rng.integers(-2, 3, size=3)) if x})
            assert oracle.exact_rank(vectors) == _fraction_rank(vectors, species)
    finally:
        oracle.STATS = before
    assert paths.certified_by_prime and paths.certified_by_kernel


def test_fraction_free_rank_against_fractions():
    rng = np.random.default_rng(6)
    for _ in range(100):
        species = list(range(1, 6))
        vectors = [{s: int(rng.integers(-3, 4)) for s in species} for _ in range(int(rng.integers(1, 7)))]
        vectors = [{s: x for s, x in v.items() if x} for v in vectors]
        vectors = [v for v in vectors if v] or [{1: 1}]
        assert oracle._fraction_free_rank(vectors) == _fraction_rank(vectors, species)


def test_mirrored_sampling_contract_matches_the_program():
    from defzero.complexes import index_to_complex
    from defzero.rng import derive_seed
    from defzero.sampler import sample_edge_ranks

    for n in (1, 2, 7, 40):
        for idx in range(oracle.universe_size(n)):
            assert oracle.complex_species(n, idx) == index_to_complex(n, idx).species
        p = oracle.sweep_p(8.0, 3.0, n)
        for i in range(20):
            seed = derive_seed(11, n, i)
            assert oracle.derive_seed(11, n, i) == seed
            assert oracle.sample_edge_ranks(n, p, seed) == sample_edge_ranks(n, p, seed)


def test_edge_count_is_the_size_of_the_draw():
    for n in (40, 160):
        p = oracle.sweep_p(8.0, 3.0, n)
        for seed in range(10):
            assert oracle.edge_count(n, p, seed) == len(oracle.sample_edge_ranks(n, p, seed))


def test_forest_cut_at_n_plus_one_edges_gives_the_same_verdict():
    # Dense trials have far more than n forest edges; sparser ones fewer.
    for c, beta, n in ((1.0, 2.5, 40), (1.0, 2.5, 160), (8.0, 3.0, 40), (8.0, 3.0, 160)):
        p = oracle.sweep_p(c, beta, n)
        for seed in range(10):
            whole = oracle.forest_independent(n, oracle.trial_forest(n, p, seed)[1])
            assert oracle.trial_def_zero(n, p, seed) == whole


def test_tail_needs_ten_samples_beyond():
    assert tail(range(100)) == 89
    assert tail([3.0, 1.0, 2.0]) == 2.0


@pytest.fixture
def sweep_record():
    op = workloads.sweep((5, 40), 8.0, 3.0, 40, 123)
    return {"op": op, "phase": "measure", **_run_cli(workloads.argv(op))}


@pytest.fixture
def analyze_record(tmp_path):
    op = workloads.analyze(40, 16.0, 77, str(tmp_path))
    workloads.write_file(op)
    return {"op": op, "phase": "measure", **_run_cli(workloads.argv(op))}


def _edit_first_row(rec, edit):
    doc = json.loads(rec["stdout"])
    edit(doc["rows"][0])
    return dict(rec, stdout=json.dumps(doc))


def test_correct_outputs_pass(sweep_record, analyze_record):
    assert tally([sweep_record, analyze_record], Checker()) == (True, [])


def test_successes_off_by_one_is_a_failed_operation(sweep_record):
    def bump(row):
        row["successes"] += 1
        row["estimate"] = row["successes"] / row["trials"]

    bad = _edit_first_row(sweep_record, bump)
    correct, failures = tally([sweep_record, bad], Checker())
    assert not correct
    assert len(failures) == 1 and "successes" in failures[0]


def test_wrong_component_rank_is_a_failed_operation(analyze_record):
    def corrupt(row):
        comp = max(row["components"], key=lambda c: c["complex_count"])
        comp["rank"] += 1
        comp["deficiency"] -= 1

    bad = _edit_first_row(analyze_record, corrupt)
    correct, failures = tally([bad], Checker())
    assert not correct
    assert len(failures) == 1 and "components" in failures[0]


def test_crash_is_failed_but_not_wrong(sweep_record):
    crashed = dict(sweep_record, exit=1, stdout="", stderr="Traceback (most recent call last):\n")
    noisy = dict(sweep_record, stderr="Traceback (most recent call last):\n")
    correct, failures = tally([crashed, noisy], Checker())
    assert correct
    assert len(failures) == 2


def test_tracer_reports_layers_and_restores(tmp_path):
    from defzero import cli, experiments
    from defzero.network import ReactionNetwork

    originals = (cli.main, experiments.deficiency_is_zero, ReactionNetwork.__dict__["from_edge_list"])
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        rec = _run_cli(workloads.argv(workloads.sweep((40,), 8.0, 3.0, 30, 9)))
        op = workloads.analyze(40, 8.0, 3, str(tmp_path))
        workloads.write_file(op)
        _run_cli(workloads.argv(op))
    finally:
        restore()
    assert (cli.main, experiments.deficiency_is_zero, ReactionNetwork.__dict__["from_edge_list"]) == originals
    assert rec["exit"] == 0
    layers = tracing.layer_metrics(tracer)
    for name in ("rng.seed_us", "sampler.sample_ms", "network.build_ms", "exactrank.calls",
                 "experiments.trial_ms_p50", "netparse.parse_ms", "cli.overhead_ms"):
        assert layers[name] > 0, name
    assert 0 < layers["experiments.shortcircuit_ratio"] < 1
    out = tmp_path / "spans.json"
    tracer.write(str(out))
    spans = json.loads(out.read_text())
    assert len(spans["start"]) == len(spans["parent"]) == len(spans["trial"]) > 0
