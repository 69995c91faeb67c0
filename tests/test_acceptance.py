"""Acceptance suite: one test per criterion, at the stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to get one PASS line per
criterion on stdout (the -v test report carries the same information).
Trend checks compare point estimates with a three-standard-error slack, and
every randomized check runs under a frozen seed, so the suite is fully
deterministic.
"""

import time
from itertools import product as iproduct
from math import sqrt
from pathlib import Path

import numpy as np

from defzero import (
    ErTrialConfig,
    IsolatedTailSpec,
    Reaction,
    SweepSpec,
    estimate_def_zero_prob,
    estimate_four_species_given_paired,
    estimate_isolated_tail,
    estimate_matrix_independence,
    exact_def_zero_prob_small,
    sample_er_network,
    sample_k_paired,
    sweep_threshold,
    universe_size,
)
from defzero.cli import main as cli_main
from defzero.complexes import index_to_complex
from defzero.exactrank import rank_mod_prime, rank_of_columns
from defzero.experiments import _def_zero_counts
from defzero.netparse import parse_network, to_reaction_network
from defzero.rng import derive_seed, generator

from support import four_species_pair_fraction, minor_rank

DATA = Path(__file__).parent / "data"


def sigma(p, trials):
    return sqrt(p * (1 - p) / trials)


def ok(num, message):
    print(f"criterion {num}: PASS — {message}")


def test_criterion_01_exact_oracle_n1():
    started = time.perf_counter()
    # the deficiency-zero graphs among the 8: the empty graph and the three
    # single-edge graphs
    assert _def_zero_counts(1) == (1, 3, 0, 0)
    exact = exact_def_zero_prob_small(1, 0.5)
    assert exact == 0.5
    row = estimate_def_zero_prob(ErTrialConfig(1, 0.5, 123), 10_000)
    tol = 3 * sigma(exact, row.trials)  # ~0.015
    assert abs(row.estimate - exact) <= tol
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    ok(1, f"n=1 exact 0.5, MC {row.estimate} within ±{tol:.4f}, {elapsed:.2f}s")


def test_criterion_02_exact_oracle_n2():
    started = time.perf_counter()
    for p, seed in ((0.05, 31), (0.1, 9), (0.3, 17)):
        exact = exact_def_zero_prob_small(2, p)  # 32768-graph enumeration, cached
        row = estimate_def_zero_prob(ErTrialConfig(2, p, seed), 10_000)
        assert abs(row.estimate - exact) <= 3 * sigma(exact, row.trials), (p, row.estimate, exact)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    ok(2, f"n=2 enumeration vs MC at p=0.05/0.1/0.3 within 3 sigma, {elapsed:.1f}s")


def _random_case(index, master=2024):
    rng = generator(derive_seed(master, index))
    n = int(rng.integers(1, 31))
    if index % 2 == 0:
        size = universe_size(n)
        total = size * (size - 1) // 2
        if n <= 6:
            p = float(rng.uniform(0.0, 0.5))
        else:
            p = min(1.0, float(rng.uniform(0.0, 50.0)) / total)
        net = sample_er_network(ErTrialConfig(n, p, derive_seed(master, index, 1)))
    else:
        k_max = min(n + 3, universe_size(n) // 2)
        k = int(rng.integers(0, k_max + 1))
        net = sample_k_paired(n, k, derive_seed(master, index, 1))
    return net, rng


def test_criterion_03_deficiency_property_suite():
    cases = 10_000
    started = time.perf_counter()
    for index in range(cases):
        net, rng = _random_case(index)
        rep = net.deficiency()
        # non-negativity, total and per component
        assert rep.deficiency >= 0
        assert all(c.deficiency >= 0 for c in rep.components)
        # full report unchanged when every direction flips
        assert net.reverse_all().deficiency() == rep
        # deficiency zero iff (every component deficiency zero and the
        # component ranks add up to the total rank)
        assert (rep.deficiency == 0) == (
            all(c.deficiency == 0 for c in rep.components)
            and sum(c.rank for c in rep.components) == rep.rank
        )
        # size bound
        if rep.deficiency == 0:
            assert rep.num_complexes <= 2 * net.n
        # paired fast path
        paired, count = net.is_paired()
        assert paired == rep.is_paired
        assert count == rep.num_components
        if paired:
            assert net.paired_def_zero() == (rep.deficiency == 0)
        # monotonicity under one added reaction
        size = universe_size(net.n)
        for _ in range(20):
            u, v = int(rng.integers(0, size)), int(rng.integers(0, size))
            if u == v:
                continue
            extra = Reaction(index_to_complex(net.n, u), index_to_complex(net.n, v))
            if extra in net.reactions:
                continue
            assert net.add_reaction(extra).deficiency().deficiency >= rep.deficiency
            break
    elapsed = time.perf_counter() - started
    ok(3, f"{cases} random networks, zero property violations, {elapsed:.0f}s")


def _trend(values, sigmas, direction):
    if direction == "up":
        return all(b >= a - 3 * (sa + sb) for (a, sa), (b, sb) in zip(
            list(zip(values, sigmas))[:-1], list(zip(values, sigmas))[1:]
        ))
    return all(b <= a + 3 * (sa + sb) for (a, sa), (b, sb) in zip(
        list(zip(values, sigmas))[:-1], list(zip(values, sigmas))[1:]
    ))


def test_criterion_04_threshold_trends():
    started = time.perf_counter()
    grid, trials, seed = (20, 40, 80), 2000, 7

    sub = sweep_threshold(SweepSpec(n_grid=grid, c=1.0, beta=3.5, trials=trials, master_seed=seed))
    ests = [r.estimate for r in sub]
    sigs = [sigma(max(e, 1 - 1 / trials) if e in (0.0, 1.0) else e, trials) for e in ests]
    assert _trend(ests, sigs, "up"), ests
    assert ests[-1] >= 0.8

    sup = sweep_threshold(SweepSpec(n_grid=grid, c=1.0, beta=2.5, trials=trials, master_seed=seed))
    ests2 = [r.estimate for r in sup]
    sigs2 = [sigma(min(max(e, 1 / trials), 1 - 1 / trials), trials) for e in ests2]
    assert _trend(ests2, sigs2, "down"), ests2
    assert ests2[-1] <= 0.05

    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    ok(
        4,
        f"beta=3.5 non-decreasing {[round(e, 4) for e in ests]} (final >= 0.8), "
        f"beta=2.5 non-increasing {[round(e, 4) for e in ests2]} (final <= 0.05), "
        f"{elapsed:.0f}s",
    )


def test_criterion_05_four_species_bound():
    started = time.perf_counter()
    row = estimate_four_species_given_paired(1000, 10, 2000, 21)
    bound = 1 - 21 * 10 / 1000  # 0.79
    assert row.estimate >= bound - 3 * sigma(bound, row.trials)

    favorable, total = four_species_pair_fraction(4)
    exact = favorable / total
    small = estimate_four_species_given_paired(4, 1, 2000, 22)
    assert abs(small.estimate - exact) <= 3 * sigma(exact, small.trials)

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    ok(
        5,
        f"n=1000 k=10 estimate {row.estimate} >= 0.79-3sigma; n=4 k=1 "
        f"{small.estimate} matches enumeration {exact:.5f}, {elapsed:.1f}s",
    )


def test_criterion_06_matrix_independence():
    started = time.perf_counter()
    row = estimate_matrix_independence(100, 10, 2000, 23)
    assert row.estimate >= 0.99
    # the edge cases are structural (every trial identical), so 200 draws
    # demonstrate the exact 1.0 and 0.0 just as well
    assert estimate_matrix_independence(100, 1, 200, 24).estimate == 1.0
    assert estimate_matrix_independence(100, 101, 200, 25).estimate == 0.0
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    ok(6, f"n=100 k=10 estimate {row.estimate}; k=1 -> 1.0; k=n+1 -> 0.0, {elapsed:.1f}s")


def test_criterion_07_isolated_tail_trend():
    started = time.perf_counter()
    rows = [
        estimate_isolated_tail(
            IsolatedTailSpec(n=n, alpha=float(n), trials=2000, seed=derive_seed(7, n))
        )
        for n in (20, 40, 80)
    ]
    ests = [r.estimate for r in rows]
    assert ests[0] >= ests[1] >= ests[2], ests
    elapsed = time.perf_counter() - started
    ok(7, f"tail estimates non-increasing {ests}, {elapsed:.1f}s")


def test_criterion_08_rank_kernel():
    started = time.perf_counter()
    vals = (-2, -1, 0, 1, 2)

    # exhaustive 1x1, 2x2, 3x3
    for a in vals:
        assert rank_of_columns([(a,)], 1) == (1 if a else 0)
    for flat in iproduct(vals, repeat=4):
        mat = [flat[0:2], flat[2:4]]
        cols = [tuple(col) for col in zip(*mat)]
        assert rank_of_columns(cols, 2) == minor_rank(mat)
    mismatches = 0
    for flat in iproduct(vals, repeat=9):
        mat = (flat[0:3], flat[3:6], flat[6:9])
        cols = ((flat[0], flat[3], flat[6]), (flat[1], flat[4], flat[7]), (flat[2], flat[5], flat[8]))
        if rank_of_columns(cols, 3) != minor_rank(mat):
            mismatches += 1
    assert mismatches == 0

    # 1e5 random 4x4
    rng = np.random.default_rng(808)
    for _ in range(100_000):
        mat = rng.integers(-2, 3, size=(4, 4))
        rows = [[int(x) for x in row] for row in mat]
        cols = [tuple(col) for col in zip(*rows)]
        if rank_of_columns(cols, 4) != minor_rank(rows):
            mismatches += 1
    assert mismatches == 0

    # 1e4 random stoichiometric matrices: hybrid kernel vs pure prime field
    disagreements = 0
    for index in range(10_000):
        r = generator(derive_seed(909, index))
        n = int(r.integers(2, 21))
        size = universe_size(n)
        total = size * (size - 1) // 2
        p = min(1.0, float(r.uniform(0.5, 30.0)) / total)
        net = sample_er_network(ErTrialConfig(n, p, derive_seed(909, index, 1)))
        matrix = net.stoich_matrix()
        dense = [[col[row] for col in matrix.columns] for row in range(matrix.rows)]
        if net.stoich_rank() != rank_mod_prime(dense):
            disagreements += 1
    assert disagreements == 0

    elapsed = time.perf_counter() - started
    ok(8, f"rank kernel: 0 disagreements across exhaustive/random/prime-field checks, {elapsed:.0f}s")


def test_criterion_09_golden_fixtures():
    enzyme = to_reaction_network(parse_network((DATA / "enzyme_kinetics.crn").read_text()))
    rep = enzyme.deficiency()
    assert (rep.num_complexes, rep.num_components, rep.rank, rep.deficiency) == (6, 2, 4, 0)

    paired = to_reaction_network(parse_network((DATA / "three_paired.crn").read_text()))
    assert paired.deficiency().deficiency == 0
    assert paired.is_paired() == (True, 3)
    assert paired.paired_def_zero() is True

    cyc = to_reaction_network(parse_network((DATA / "deficiency_one.crn").read_text()))
    assert cyc.deficiency().deficiency == 1

    ok(9, "enzyme (6,2,4,0), three-paired (0, paired 3), cycle-plus-doubles (deficiency 1)")


def test_criterion_10_thread_determinism(capsys, monkeypatch):
    argv = ["sweep", "--beta", "3", "--c", "1", "--trials", "400", "--seed", "2718"]

    def columns_and_rows_without_wall_time(grid):
        code = cli_main([*argv, "--n-grid", grid])
        assert code == 0
        out = capsys.readouterr().out
        return [line.rsplit(",", 1)[0] for line in out.splitlines()[1:]]

    monkeypatch.setenv("DEFZERO_THREADS", "1")
    rows_single = columns_and_rows_without_wall_time("5,10,15")
    monkeypatch.setenv("DEFZERO_THREADS", "8")
    # the second schedule runs each grid point as its own sweep
    split = [columns_and_rows_without_wall_time(n) for n in ("5", "10", "15")]
    assert len(rows_single) == 4
    assert rows_single == split[0][:1] + [row for lines in split for row in lines[1:]]
    ok(10, "CSV rows byte-identical for one sweep and one sweep per n, "
           "DEFZERO_THREADS=1 and =8")
