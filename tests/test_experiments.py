from math import sqrt

import pytest

from defzero import (
    ErTrialConfig,
    IsolatedTailSpec,
    SweepSpec,
    deficiency_is_zero,
    estimate_def_zero_prob,
    estimate_four_species_given_paired,
    estimate_isolated_tail,
    estimate_matrix_independence,
    estimate_paired_given_def_zero,
    exact_def_zero_prob_small,
    sample_er_network,
    sweep_threshold,
    wilson_interval,
)
from defzero.experiments import _def_zero_counts
from defzero.rng import derive_seed
from support import two_paired_network, four_species_pair_fraction


def binom_sigma(p, trials):
    return sqrt(p * (1 - p) / trials)


def test_wilson_interval_basics():
    low, high = wilson_interval(50, 100)
    assert 0.0 <= low <= 0.5 <= high <= 1.0
    assert wilson_interval(0, 10)[0] == 0.0
    assert wilson_interval(10, 10)[1] == 1.0
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


def test_wilson_interval_always_contains_estimate():
    # including the full-success/zero-success boundaries, where naive float
    # evaluation can land one ulp inside
    for trials in (1, 7, 200, 300, 2000, 10_000):
        for successes in {0, 1, trials // 3, trials - 1, trials}:
            if not 0 <= successes <= trials:
                continue
            low, high = wilson_interval(successes, trials)
            assert 0.0 <= low <= successes / trials <= high <= 1.0


def test_exact_small_n1_closed_form():
    # the 8 n=1 graphs: the empty graph and the three single-edge graphs are
    # the deficiency-zero ones, so P = (1-p)^3 + 3 p (1-p)^2
    for p in (0.0, 0.1, 0.5, 0.9, 1.0):
        expected = (1 - p) ** 3 + 3 * p * (1 - p) ** 2
        assert exact_def_zero_prob_small(1, p) == pytest.approx(expected, abs=1e-12)
    assert exact_def_zero_prob_small(1, 0.5) == pytest.approx(0.5, abs=1e-12)
    assert exact_def_zero_prob_small(1, 0.0) == 1.0
    assert exact_def_zero_prob_small(1, 1.0) == 0.0


def test_exact_small_n2_counts():
    # counts[e]: the e-edge graphs among the 2^15 over the six n=2 complexes
    # whose network has deficiency zero; none has more than three edges
    assert _def_zero_counts(2) == (1, 15, 87, 17) + (0,) * 12


def test_exact_small_rejects_unsupported():
    with pytest.raises(ValueError):
        exact_def_zero_prob_small(3, 0.1)
    with pytest.raises(ValueError):
        exact_def_zero_prob_small(1, 1.5)


def test_estimate_def_zero_p0_is_exactly_one():
    row = estimate_def_zero_prob(ErTrialConfig(3, 0.0, 5), 50)
    assert row.successes == row.trials == 50
    assert row.estimate == 1.0


def test_estimate_def_zero_matches_oracle():
    cases = (
        (1, 0.05, 41), (1, 0.5, 123),
        (2, 0.1, 9), (2, 0.3, 17), (2, 0.5, 53),
    )
    for n, p, seed in cases:
        exact = exact_def_zero_prob_small(n, p)
        row = estimate_def_zero_prob(ErTrialConfig(n, p, seed), 10_000)
        assert abs(row.estimate - exact) <= 3 * binom_sigma(exact, row.trials)
        assert row.ci_low <= row.estimate <= row.ci_high


def test_estimate_rejects_zero_trials():
    with pytest.raises(ValueError):
        estimate_def_zero_prob(ErTrialConfig(1, 0.5, 1), 0)


def test_deficiency_is_zero_short_circuit_consistency():
    # the |C| > 2n shortcut must agree with the full computation
    from defzero import sample_er_network

    for seed in range(300):
        net = sample_er_network(ErTrialConfig(3, 0.25, seed))
        assert deficiency_is_zero(net) == (net.deficiency().deficiency == 0)


def test_forest_bound_decides_without_rank(monkeypatch):
    # 0 - S1 - S2 - 2S1 is a path with 3 forest edges over n = 2 species:
    # 4 complexes, so the old 2n rule does not apply, but 3 vectors in Q^2
    # are always dependent.
    from defzero import network

    def no_rank(*args):
        raise AssertionError("the forest bound should have decided")

    net = network.ReactionNetwork.from_edge_list(2, [(0, 1), (1, 2), (2, 3)])
    monkeypatch.setattr(network, "rank_of_columns", no_rank)
    assert deficiency_is_zero(net) is False
    assert len(net.vertices) == 4 and net.forest_size() == 3


def test_sweep_rows_ordered_and_seed_stable():
    spec = SweepSpec(n_grid=(10, 5), c=1.0, beta=3.0, trials=100, master_seed=3)
    rows = sweep_threshold(spec)
    assert [r.n for r in rows] == [5, 10]
    # a subset grid reproduces the same row for the shared n
    sub = sweep_threshold(SweepSpec(n_grid=(10,), c=1.0, beta=3.0, trials=100, master_seed=3))
    assert sub[0].successes == rows[1].successes
    assert sub[0].p == rows[1].p


def test_sweep_single_trial_estimates_are_binary():
    rows = sweep_threshold(SweepSpec(n_grid=(5, 8), c=1.0, beta=3.0, trials=1, master_seed=1))
    assert all(r.estimate in (0.0, 1.0) for r in rows)


def test_sweep_validation():
    with pytest.raises(ValueError):
        SweepSpec(n_grid=(), c=1.0, beta=3.0, trials=10, master_seed=0)
    with pytest.raises(ValueError):
        SweepSpec(n_grid=(5,), c=0.0, beta=3.0, trials=10, master_seed=0)
    with pytest.raises(ValueError):
        SweepSpec(n_grid=(5,), c=1.0, beta=-1.0, trials=10, master_seed=0)
    with pytest.raises(ValueError):
        SweepSpec(n_grid=(5,), c=1.0, beta=3.0, trials=0, master_seed=0)


def test_isolated_tail_p_clamps_high_and_rejects_nonpositive():
    # alpha = N^2 pushes the raw probability just over 1; it clamps
    n = 1
    spec = IsolatedTailSpec(n=n, alpha=9.0, trials=40, seed=2)
    row = estimate_isolated_tail(spec)
    assert row.p == 1.0
    assert row.estimate == 0.0  # the complete graph leaves nobody isolated
    with pytest.raises(ValueError):
        estimate_isolated_tail(IsolatedTailSpec(n=5, alpha=-10.0, trials=10, seed=1))


def test_isolated_tail_spec_refuses_oversized_draw():
    # p clamps at 1 at n=1000, about 1.3e11 expected edges; construction only
    with pytest.raises(ValueError, match="edges"):
        IsolatedTailSpec(n=1000, alpha=1e13, trials=3, seed=0)


@pytest.mark.parametrize("estimate", [
    lambda: estimate_def_zero_prob(ErTrialConfig(3, 0.1, 1), 0),
    lambda: estimate_isolated_tail(IsolatedTailSpec(n=3, alpha=3.0, trials=0, seed=1)),
    lambda: estimate_four_species_given_paired(5, 1, 0, 1),
    lambda: estimate_matrix_independence(10, 2, 0, 1),
    lambda: estimate_paired_given_def_zero(ErTrialConfig(3, 0.1, 1), 0),
], ids=["def-zero", "isolated", "four-species", "matrix-indep", "paired-given-def-zero"])
def test_estimators_reject_zero_trials(estimate):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        estimate()


def _refuse_to_draw(*args, **kwargs):
    raise AssertionError("a trial ran")


@pytest.mark.parametrize("run", [
    lambda: sweep_threshold(SweepSpec((2,), 1.0, 3.0, 2, -1)),
    lambda: estimate_four_species_given_paired(6, 1, 2, seed=-1),
    lambda: estimate_matrix_independence(6, 1, 2, seed=-1),
], ids=["sweep", "four-species", "matrix-indep"])
def test_negative_master_seed_is_refused_before_any_trial(run, monkeypatch):
    # refused, not folded to 64 bits: -1 would repeat the streams of 2**64 - 1
    monkeypatch.setattr("defzero.sampler.sample_edge_ranks", _refuse_to_draw)
    monkeypatch.setattr("defzero.sampler.generator", _refuse_to_draw)
    with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
        run()


def test_isolated_tail_small_scale_trend():
    rows = []
    for n in (10, 20):
        rows.append(
            estimate_isolated_tail(IsolatedTailSpec(n=n, alpha=float(n), trials=400, seed=6))
        )
    assert rows[0].estimate >= rows[1].estimate


def test_four_species_k0_vacuous():
    row = estimate_four_species_given_paired(5, 0, 30, 8)
    assert row.estimate == 1.0


def test_estimators_reject_negative_k():
    with pytest.raises(ValueError, match="k must be >= 0"):
        estimate_four_species_given_paired(5, -1, 30, 8)
    with pytest.raises(ValueError, match="k must be >= 0"):
        estimate_matrix_independence(10, -1, 25, 3)


def test_four_species_matches_exhaustive_enumeration():
    favorable, total = four_species_pair_fraction(4)
    assert (favorable, total) == (3, 105)
    exact = favorable / total
    row = estimate_four_species_given_paired(4, 1, 2000, 22)
    assert abs(row.estimate - exact) <= 3 * binom_sigma(exact, row.trials)


def test_matrix_independence_edge_cases():
    assert estimate_matrix_independence(10, 1, 25, 3).estimate == 1.0
    assert estimate_matrix_independence(10, 11, 25, 3).estimate == 0.0


def test_paired_given_def_zero_undefined_when_empty():
    row = estimate_paired_given_def_zero(ErTrialConfig(3, 0.0, 4), 50)
    assert row.conditioning_count == 0
    assert row.estimate is None
    assert row.ci_low is None and row.ci_high is None


def test_paired_given_def_zero_counts_two_paired_fixture():
    # the event logic on a known network: the two-paired fixture has
    # deficiency zero, so it conditions and succeeds
    net = two_paired_network()
    assert net.reactions and deficiency_is_zero(net) and net.is_paired()[0]


def test_paired_given_def_zero_subcritical():
    row = estimate_paired_given_def_zero(ErTrialConfig(40, 40.0 ** -3.5, 26), 5000)
    assert row.conditioning_count > 1000
    assert row.estimate >= 0.95


def test_boundary_sweep_sits_strictly_between():
    # with c=4 the three scalings separate cleanly at this grid; the
    # boundary exponent beta=3 must land strictly inside the other two
    grid, trials, seed = (20, 40), 2000, 7
    curves = {
        beta: [
            r.estimate
            for r in sweep_threshold(
                SweepSpec(n_grid=grid, c=4.0, beta=beta, trials=trials, master_seed=seed)
            )
        ]
        for beta in (2.5, 3.0, 3.5)
    }
    for i in range(len(grid)):
        assert curves[2.5][i] < curves[3.0][i] < curves[3.5][i], curves


def test_rows_are_schedule_independent(monkeypatch):
    cfg = ErTrialConfig(2, 0.2, 77)
    monkeypatch.setenv("DEFZERO_THREADS", "1")
    seq = estimate_def_zero_prob(cfg, 500)
    monkeypatch.setenv("DEFZERO_THREADS", "8")
    # the second schedule runs each trial on its own, from its derived seed
    successes = sum(
        deficiency_is_zero(sample_er_network(ErTrialConfig(cfg.n, cfg.p, derive_seed(cfg.seed, i))))
        for i in range(500)
    )
    assert (seq.n, seq.p, seq.trials, seq.successes, seq.estimate, (seq.ci_low, seq.ci_high)) == (
        cfg.n, cfg.p, 500, successes, successes / 500, wilson_interval(successes, 500)
    )
