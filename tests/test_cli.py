import json
import re
from pathlib import Path

import pytest

from defzero import exact_def_zero_prob_small
from defzero.cli import main

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_wall_time(csv_text):
    """CSV rows minus the wall_time_ms column (always the last one)."""
    out = []
    for line in csv_text.splitlines():
        if line.startswith("#") or line.startswith("n,"):
            out.append(line)
        elif line:
            out.append(line.rsplit(",", 1)[0])
    return out


def test_analyze_enzyme(capsys):
    code, out, _ = run_cli(capsys, "analyze", str(DATA / "enzyme_kinetics.crn"))
    assert code == 0
    assert "deficiency: 0" in out
    assert "complexes: 6" in out
    assert "components: 2" in out
    assert "rank: 4" in out


def test_analyze_deficiency_one(capsys):
    code, out, _ = run_cli(capsys, "analyze", str(DATA / "deficiency_one.crn"))
    assert code == 0
    assert "deficiency: 1" in out


def test_analyze_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.crn"
    empty.write_text("# nothing here\n")
    code, out, _ = run_cli(capsys, "analyze", str(empty))
    assert code == 0
    assert "empty network, deficiency: 0" in out


def test_analyze_missing_file(capsys):
    code, _, err = run_cli(capsys, "analyze", "/nonexistent/x.crn")
    assert code == 1
    assert "cannot read" in err


def test_analyze_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.crn"
    bad.write_text("S1 -> S1\n")
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2
    assert "line 1" in err


def test_analyze_non_utf8_is_input_error(tmp_path, capsys):
    bad = tmp_path / "binary.crn"
    bad.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith(f"defzero: {bad}: ")
    assert len(err.splitlines()) == 1


def test_analyze_json(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", str(DATA / "three_paired.crn"), "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["schema_version"] == "1"
    assert record["command"] == "analyze"
    row = record["rows"][0]
    assert row["deficiency"] == 0
    assert row["is_paired"] is True
    assert row["num_components"] == 3


def test_sample_deterministic_and_emits_network(tmp_path, capsys):
    out_file = tmp_path / "net.crn"
    code, out1, _ = run_cli(
        capsys, "sample", "--n", "1", "--p", "1", "--seed", "5",
        "--emit-network", str(out_file),
    )
    assert code == 0
    assert "deficiency: 1" in out1
    first = out_file.read_text()
    assert first == "0 <-> S1\n0 <-> 2 S1\nS1 <-> 2 S1\n"
    code, out2, _ = run_cli(
        capsys, "sample", "--n", "1", "--p", "1", "--seed", "5",
        "--emit-network", str(out_file),
    )
    assert out1 == out2
    assert out_file.read_text() == first


def test_sample_p_zero(capsys):
    code, out, _ = run_cli(capsys, "sample", "--n", "5", "--p", "0", "--seed", "1")
    assert code == 0
    assert "empty network, deficiency: 0" in out


def test_sample_rejects_bad_p(capsys):
    code, _, err = run_cli(capsys, "sample", "--n", "2", "--p", "1.5", "--seed", "1")
    assert code == 1
    assert "p must be in [0, 1]" in err


@pytest.mark.parametrize("flags, word", [
    (("--n", "0"), "species count"),
    (("--n", "3", "--seed", "-1"), "seed"),
])
def test_sample_rejects_bad_config_without_traceback(capsys, flags, word):
    code, out, err = run_cli(capsys, "sample", "--p", "0.5", *flags)
    assert code == 1
    assert out == ""
    assert err.startswith("defzero: ") and word in err
    assert len(err.splitlines()) == 1


def _refuse_to_draw(*args):
    pytest.fail("edges were drawn for a request that should be refused")


@pytest.mark.parametrize("argv", [
    ("sample", "--n", "1000", "--p", "1"),
    ("sweep", "--n-grid", "2,1000", "--c", "1", "--beta", "0.1", "--trials", "2"),
])
def test_oversized_draws_are_refused_before_sampling(capsys, monkeypatch, argv):
    monkeypatch.setattr("defzero.sampler.sample_edge_ranks", _refuse_to_draw)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("defzero: ") and "edges" in err
    assert len(err.splitlines()) == 1


def test_isolated_checks_every_row_before_sampling(capsys, monkeypatch):
    # the n=2 row is drawn first unless every row is checked up front
    monkeypatch.setattr("defzero.sampler.sample_edge_ranks", _refuse_to_draw)
    code, out, err = run_cli(
        capsys, "experiment", "isolated", "--n-grid", "2,1000", "--alpha", "1e13",
        "--trials", "3",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("defzero: ") and "edges" in err
    assert len(err.splitlines()) == 1


# From n = 92,681 the pair count M reaches 2**63, which numpy's binomial cannot
# take; a 401-digit n is also beyond float(n).
_HUGE_N = "9" * 401


@pytest.mark.parametrize("argv", [
    ("sample", "--n", "92681", "--p", "1e-19"),
    ("sweep", "--n-grid", "40,92681", "--beta", "3.5", "--trials", "2"),
    ("sweep", "--n-grid", _HUGE_N, "--beta", "3.5", "--trials", "2"),
    ("experiment", "isolated", "--n-grid", "40,92681", "--trials", "2"),
    ("experiment", "isolated", "--n-grid", _HUGE_N, "--trials", "2"),
    ("experiment", "paired-given-defzero", "--n", "92681", "--p", "1e-19", "--trials", "2"),
], ids=["sample", "sweep", "sweep-401-digits", "isolated", "isolated-401-digits", "paired"])
def test_too_many_vertex_pairs_are_refused_before_sampling(capsys, monkeypatch, argv):
    monkeypatch.setattr("defzero.sampler.sample_edge_ranks", _refuse_to_draw)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("defzero: species count ")
    assert err.endswith(" has 2**63 or more vertex pairs to draw from\n")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("n", ["92681", _HUGE_N])
def test_empty_draw_is_accepted_at_any_species_count(capsys, n):
    code, out, err = run_cli(capsys, "sample", "--n", n, "--p", "0")
    assert (code, out, err) == (0, "empty network, deficiency: 0\n", "")


def test_largest_drawable_species_count_still_samples(capsys):
    code, out, err = run_cli(capsys, "sample", "--n", "92680", "--p", "1e-18", "--seed", "1")
    assert (code, err) == (0, "")
    assert out.startswith("complexes: 16\ncomponents: 8\n")


@pytest.mark.parametrize("argv", [
    ("sweep", "--n-grid", "2", "--beta", "3", "--trials", "2",
     "--out", "/nonexistent/dir/rows.csv"),
    ("sample", "--n", "2", "--p", "0.5", "--emit-network", "/nonexistent/dir/x.crn"),
    ("experiment", "exact-small", "--n", "1", "--p", "0.5", "--out", "/nonexistent/dir/x"),
])
def test_unwritable_output_path_exits_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"defzero: cannot write {argv[-1]}: ")
    assert len(err.splitlines()) == 1


def _refuse_to_draw_anything(monkeypatch):
    monkeypatch.setattr("defzero.sampler.sample_edge_ranks", _refuse_to_draw)
    # the k-paired and sign-matrix samplers key a generator without drawing edges
    monkeypatch.setattr("defzero.sampler.generator", _refuse_to_draw)


@pytest.mark.parametrize("argv", [
    ("sample", "--n", "3", "--p", "0.5"),
    ("sweep", "--n-grid", "2,3", "--beta", "3", "--trials", "2"),
    ("experiment", "isolated", "--n-grid", "2,3", "--trials", "2"),
    ("experiment", "four-species", "--n", "6", "--k", "1", "--trials", "2"),
    ("experiment", "matrix-indep", "--n", "6", "--k", "1", "--trials", "2"),
    ("experiment", "paired-given-defzero", "--n", "3", "--p", "0.1", "--trials", "2"),
])
def test_negative_seed_is_refused_by_every_command(capsys, monkeypatch, argv):
    # refused, not folded to 64 bits: --seed -1 would otherwise repeat the
    # stream of --seed 18446744073709551615
    _refuse_to_draw_anything(monkeypatch)
    code, out, err = run_cli(capsys, *argv, "--seed", "-1")
    assert code == 1
    assert out == ""
    assert err == "defzero: seed must be a non-negative integer, got -1\n"


@pytest.mark.parametrize("argv", [
    ("sweep", "--n-grid", "2,3", "--beta", "3", "--trials", "2",
     "--out", "/nonexistent/dir/rows.csv"),
    ("experiment", "isolated", "--n-grid", "2,3", "--trials", "2",
     "--out", "/nonexistent/dir/rows.csv"),
    ("sample", "--n", "2", "--p", "0.5", "--emit-network", "/nonexistent/dir/x.crn"),
])
def test_output_paths_are_opened_before_the_first_trial(capsys, monkeypatch, argv):
    _refuse_to_draw_anything(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"defzero: cannot write {argv[-1]}: ")
    assert len(err.splitlines()) == 1


def test_refused_request_leaves_an_existing_output_file_intact(tmp_path, capsys):
    # the early open of --out must not truncate what a refused run never replaces
    out_path = tmp_path / "rows.csv"
    out_path.write_text("previous rows\n")
    code, _, err = run_cli(
        capsys, "sweep", "--n-grid", "2", "--c", "nan", "--beta", "3", "--trials", "2",
        "--out", str(out_path),
    )
    assert code == 1
    assert "finite" in err
    assert out_path.read_text() == "previous rows\n"


@pytest.mark.parametrize("argv", [
    ("sweep", "--n-grid", "2", "--c", "nan", "--beta", "3", "--trials", "2", "--format", "json"),
    ("sweep", "--n-grid", "2", "--c", "inf", "--beta", "3", "--trials", "2"),
    ("sweep", "--n-grid", "2", "--beta", "nan", "--trials", "2"),
    ("sweep", "--n-grid", "2", "--beta", "inf", "--trials", "2"),
    ("experiment", "isolated", "--n-grid", "2", "--alpha", "nan", "--trials", "2"),
    ("experiment", "isolated", "--n-grid", "2", "--alpha=-inf", "--trials", "2"),
])
def test_non_finite_parameters_are_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("defzero: ") and "finite" in err
    assert len(err.splitlines()) == 1


def test_sweep_csv_schema_and_golden_rows(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--n-grid", "5,10", "--beta", "3", "--c", "1",
        "--trials", "200", "--seed", "123",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == (
        '# schema_version=1 command=sweep config='
        '{"beta": 3.0, "c": 1.0, "n_grid": [5, 10], "seed": 123, "trials": 200}'
    )
    assert lines[1] == "n,p,trials,successes,estimate,ci_low,ci_high,wall_time_ms"
    rows = [line.rsplit(",", 1)[0] for line in lines[2:]]
    assert rows == [
        "5,0.008,200,190,0.95,0.9104209437021562,0.9726176509713551",
        "10,0.001,200,200,1.0,0.9811539940816791,1.0",
    ]


def _argv_from_record(record):
    """The command line that the record's command and config alone describe."""
    argv = record["command"].split()
    for key, value in record["config"].items():
        if value is not None:  # None is the flag's default
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            argv += [f"--{key.replace('_', '-')}", text]
    return argv


@pytest.mark.parametrize("argv, config", [
    (("sweep", "--n-grid", "5", "--beta", "3", "--trials", "50", "--seed", "9"),
     {"n_grid": [5], "c": 1.0, "beta": 3.0, "trials": 50, "seed": 9}),
    (("experiment", "isolated", "--n-grid", "8,4", "--trials", "30"),
     {"n_grid": [8, 4], "alpha": None, "trials": 30, "seed": 0}),
    (("experiment", "four-species", "--n", "6", "--k", "2", "--trials", "30", "--seed", "2"),
     {"n": 6, "k": 2, "trials": 30, "seed": 2}),
    (("experiment", "matrix-indep", "--n", "8", "--k", "3", "--trials", "30", "--seed", "2"),
     {"n": 8, "k": 3, "trials": 30, "seed": 2}),
    (("experiment", "paired-given-defzero", "--n", "4", "--p", "0.01", "--trials", "30"),
     {"n": 4, "p": 0.01, "trials": 30, "seed": 0}),
    (("experiment", "exact-small", "--n", "2", "--p", "0.3"), {"n": 2, "p": 0.3}),
    (("sample", "--n", "3", "--p", "0.05", "--seed", "8"), {"n": 3, "p": 0.05, "seed": 8}),
], ids=["sweep", "isolated", "four-species", "matrix-indep", "paired-given-defzero",
        "exact-small", "sample"])
def test_json_roundtrip_config(capsys, argv, config):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["config"] == config
    # re-running the embedded command and config alone reproduces the rows
    code, out2, _ = run_cli(capsys, *_argv_from_record(record), "--format", "json")
    assert code == 0
    rerun = json.loads(out2)
    assert (rerun["command"], rerun["config"]) == (record["command"], record["config"])
    for row in record["rows"] + rerun["rows"]:
        row.pop("wall_time_ms", None)
    assert rerun["rows"] == record["rows"]


def test_sweep_trials_zero_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--n-grid", "5", "--beta", "3", "--trials", "0", "--seed", "1"
    )
    assert code == 1
    assert "trials" in err


def test_sweep_bad_grid(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--n-grid", "a,b", "--beta", "3", "--trials", "5"
    )
    assert code == 1


def test_sweep_out_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--n-grid", "4", "--beta", "3", "--trials", "20",
        "--seed", "2", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("# schema_version=1 command=sweep")


def test_threads_do_not_change_rows(capsys, monkeypatch):
    # the second run takes the grid in reverse; rows come out ordered by n
    argv = ["sweep", "--beta", "3", "--trials", "300", "--seed", "11", "--n-grid"]
    monkeypatch.setenv("DEFZERO_THREADS", "1")
    code1, out1, _ = run_cli(capsys, *argv, "4,8")
    monkeypatch.setenv("DEFZERO_THREADS", "8")
    code8, out8, _ = run_cli(capsys, *argv, "8,4")
    assert code1 == code8 == 0
    assert strip_wall_time(out1)[1:] == strip_wall_time(out8)[1:]
    assert len(strip_wall_time(out1)) == 4


def test_experiment_exact_small(capsys):
    code, out, _ = run_cli(capsys, "experiment", "exact-small", "--n", "1", "--p", "0.5")
    assert code == 0
    assert out.strip() == "0.5"


def test_experiment_exact_small_out_file(tmp_path, capsys):
    # the early open appends nothing; the result then replaces the old contents
    out_path = tmp_path / "exact.txt"
    out_path.write_text("previous value\n")
    code, out, err = run_cli(
        capsys, "experiment", "exact-small", "--n", "2", "--p", "0.3",
        "--out", str(out_path),
    )
    assert (code, out, err) == (0, "", "")
    assert out_path.read_text() == f"{exact_def_zero_prob_small(2, 0.3)!r}\n"


def test_experiment_exact_small_json(capsys):
    code, out, _ = run_cli(
        capsys, "experiment", "exact-small", "--n", "1", "--p", "0.5",
        "--format", "json",
    )
    record = json.loads(out)
    assert record["rows"][0]["exact_probability"] == 0.5


def test_experiment_matrix_indep(capsys):
    code, out, _ = run_cli(
        capsys, "experiment", "matrix-indep", "--n", "30", "--k", "3",
        "--trials", "40", "--seed", "3",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "n,k,p,trials,successes,estimate,ci_low,ci_high,wall_time_ms"
    assert lines[2].startswith("30,3,,40,")


def test_experiment_four_species(capsys):
    code, out, _ = run_cli(
        capsys, "experiment", "four-species", "--n", "50", "--k", "2",
        "--trials", "40", "--seed", "3",
    )
    assert code == 0
    assert out.splitlines()[2].startswith("50,2,,40,")


def test_experiment_isolated_default_alpha(capsys):
    code, out, _ = run_cli(
        capsys, "experiment", "isolated", "--n-grid", "10,20", "--trials", "50",
        "--seed", "4",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[2].startswith("10,")
    assert lines[3].startswith("20,")


def test_experiment_paired_given_defzero(capsys):
    code, out, _ = run_cli(
        capsys, "experiment", "paired-given-defzero", "--n", "10", "--p", "0.001",
        "--trials", "200", "--seed", "5",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == (
        "n,p,trials,successes,estimate,ci_low,ci_high,conditioning_count,wall_time_ms"
    )


def test_experiment_paired_given_defzero_row(capsys):
    # 179 of the 200 draws are non-empty with deficiency zero; 159 of those are paired
    code, out, _ = run_cli(
        capsys, "experiment", "paired-given-defzero", "--n", "10", "--p", "0.001",
        "--trials", "200", "--seed", "5",
    )
    assert code == 0
    assert strip_wall_time(out)[2:] == [
        "10,0.001,200,159,0.888268156424581,0.8337229500129479,0.9264979187608979,179",
    ]


def test_experiment_exact_small_rejects_bad_p(capsys):
    code, out, err = run_cli(capsys, "experiment", "exact-small", "--n", "1", "--p", "2")
    assert code == 1
    assert out == ""
    assert err == "defzero: edge probability p must be in [0, 1], got 2.0\n"


def test_experiment_unknown_name_lists_choices(capsys):
    code, _, err = run_cli(capsys, "experiment", "bogus")
    assert code == 1
    assert "isolated" in err and "exact-small" in err


def test_experiment_domain_error_exits_1(capsys):
    code, _, err = run_cli(
        capsys, "experiment", "four-species", "--n", "1", "--k", "5",
        "--trials", "10", "--seed", "0",
    )
    assert code == 1
    assert "disjoint pairs" in err


def test_experiments_reject_negative_k(capsys):
    for name in ("four-species", "matrix-indep"):
        code, out, err = run_cli(
            capsys, "experiment", name, "--n", "10", "--k", "-1", "--trials", "5",
        )
        assert code == 1
        assert out == ""
        assert err == "defzero: k must be >= 0, got -1\n"


def test_four_species_rejects_empty_species_set(capsys):
    code, out, err = run_cli(
        capsys, "experiment", "four-species", "--n", "0", "--k", "0", "--trials", "3",
    )
    assert code == 1
    assert out == ""
    assert err == "defzero: species count must be >= 1, got 0\n"


@pytest.mark.parametrize("argv, message", [
    (("four-species", "--n", "5000000000", "--k", "1"),
     "species count 5000000000 has more than 2**63 vertices to draw from"),
    (("four-species", "--n", "2000", "--k", "1000001"),
     "k=1000001 asks for more than 1000000 pairs"),
    (("matrix-indep", "--n", "121978", "--k", "1"),
     "n=121978 has more than 2**63 four-species supports to draw from"),
    (("matrix-indep", "--n", "9" * 30, "--k", "1"),
     f"n={'9' * 30}, k=1 needs more than 100000000 matrix entries"),
])
def test_undrawable_k_requests_are_refused_before_sampling(capsys, monkeypatch, argv, message):
    _refuse_to_draw_anything(monkeypatch)
    code, out, err = run_cli(capsys, "experiment", *argv, "--trials", "1")
    assert (code, out, err) == (1, "", f"defzero: {message}\n")


@pytest.mark.parametrize("argv", [
    ("experiment", "isolated", "--n-grid", "3", "--trials", "5", "--format", "text"),
    ("experiment", "exact-small", "--n", "1", "--p", "0.5", "--format", "csv"),
])
def test_experiment_format_choices_are_exact(capsys, argv):
    # estimators print csv or json, exact-small text or json; no aliases
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "invalid choice" in err


def test_one_parser_serves_repeated_calls(capsys):
    # main() reuses one argparse tree; a failed parse must not leak into
    # the next call.
    argv = ("sweep", "--n-grid", "5,10", "--beta", "3", "--c", "1", "--trials", "200",
            "--seed", "123")
    code, out, err = run_cli(capsys, *argv, "--bogus")
    assert code == 1
    assert out == ""
    assert err.startswith("usage: defzero") and "unrecognized arguments: --bogus" in err
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert strip_wall_time(out)[2:] == [
        "5,0.008,200,190,0.95,0.9104209437021562,0.9726176509713551",
        "10,0.001,200,200,1.0,0.9811539940816791,1.0",
    ]


def test_usage_error_on_missing_required(capsys):
    code, _, err = run_cli(capsys, "sweep", "--beta", "3")
    assert code == 1
    assert "required" in err


# One call per command, in each of its formats.  The expected stdout lives in
# tests/data/golden/<id>, with wall_time_ms values and the data directory
# replaced by placeholders (see _scrub).
_GOLDEN_CALLS = {
    "sweep": ("sweep", "--n-grid", "4,8", "--beta", "3", "--trials", "60", "--seed", "3"),
    "isolated": ("experiment", "isolated", "--n-grid", "4,8", "--trials", "60", "--seed", "4"),
    "four-species": ("experiment", "four-species", "--n", "6", "--k", "2", "--trials", "40",
                     "--seed", "5"),
    "matrix-indep": ("experiment", "matrix-indep", "--n", "8", "--k", "3", "--trials", "40",
                     "--seed", "6"),
    "paired-given-defzero": ("experiment", "paired-given-defzero", "--n", "4", "--p", "0.01",
                             "--trials", "60", "--seed", "7"),
    "exact-small": ("experiment", "exact-small", "--n", "2", "--p", "0.3"),
    "sample": ("sample", "--n", "3", "--p", "0.05", "--seed", "8"),
    "analyze": ("analyze", str(DATA / "enzyme_kinetics.crn")),
}
_GOLDEN_CASES = [
    (f"{name}.{fmt}", argv + (("--format", "json") if fmt == "json" else ()))
    for name, argv in _GOLDEN_CALLS.items()
    for fmt in ("json", "csv" if "--trials" in argv else "txt")
]


def _scrub(text):
    text = text.replace(str(DATA), "DATA")
    text = re.sub(r'"wall_time_ms": [^,}]+', '"wall_time_ms": WALL', text)
    lines = text.splitlines(keepends=True)
    if len(lines) > 1 and lines[1].rstrip("\n").endswith(",wall_time_ms"):
        lines[2:] = [line.rsplit(",", 1)[0] + ",WALL\n" for line in lines[2:]]
    return "".join(lines)


@pytest.mark.parametrize("case, argv", _GOLDEN_CASES, ids=[c for c, _ in _GOLDEN_CASES])
def test_golden_output(capsys, case, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert _scrub(out) == (DATA / "golden" / case).read_text()
