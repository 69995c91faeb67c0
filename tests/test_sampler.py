from collections import Counter
from itertools import combinations
from math import comb

import pytest
from scipy.stats import chisquare

from defzero import (
    ErTrialConfig,
    ReactionNetwork,
    SparseSignMatrix,
    complex_to_index,
    count_isolated,
    is_columns_independent,
    sample_er_network,
    sample_k_paired,
    sample_sparse_sign_matrix,
    universe_size,
)
from defzero.complexes import vertex_pair_count
from defzero.sampler import sample_edge_ranks, unrank_edge
from support import two_paired_network, naive_edge_ranks

CHI2_LEVEL = 1e-3


def test_config_validation():
    with pytest.raises(ValueError):
        ErTrialConfig(0, 0.5, 1)
    with pytest.raises(ValueError):
        ErTrialConfig(2, 1.5, 1)
    with pytest.raises(ValueError):
        ErTrialConfig(2, 0.5, -1)


def test_config_refuses_oversized_draws(monkeypatch):
    # Construction alone must refuse: no edge may be drawn for such a request.
    def refuse(*args):
        pytest.fail("edges were drawn for a request that should be refused")

    monkeypatch.setattr("defzero.sampler.sample_edge_ranks", refuse)
    with pytest.raises(ValueError, match="edges"):
        ErTrialConfig(1000, 1.0, 0)
    size = universe_size(1000)
    ErTrialConfig(1000, 0.99e6 / (size * (size - 1) // 2), 0)
    # pair counts beyond the float range: only p = 0 fits
    ErTrialConfig(10**80, 0.0, 0)
    with pytest.raises(ValueError, match="edges"):
        ErTrialConfig(10**80, 1e-300, 0)


def test_pair_count_reaches_numpy_limit_at_92681():
    # numpy's binomial takes M as a signed 64-bit integer
    assert vertex_pair_count(92680) < 2**63 <= vertex_pair_count(92681)
    ErTrialConfig(92680, 1e-18, 0)
    ErTrialConfig(92681, 0.0, 0)
    with pytest.raises(ValueError, match="2\\*\\*63 or more vertex pairs"):
        ErTrialConfig(92681, 1e-19, 0)


def test_unrank_edge_enumeration():
    seen = [unrank_edge(t) for t in range(10)]
    assert seen == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4)]


def test_p_zero_and_one():
    for seed in (0, 1, 99):
        assert sample_er_network(ErTrialConfig(5, 0.0, seed)) == ReactionNetwork(5)
    size = universe_size(3)
    net = sample_er_network(ErTrialConfig(3, 1.0, 4))
    assert len(net.vertices) == size
    assert len(net.reactions) == size * (size - 1)


def test_determinism_bit_for_bit():
    a = sample_er_network(ErTrialConfig(4, 0.05, 1234))
    b = sample_er_network(ErTrialConfig(4, 0.05, 1234))
    assert a == b
    assert a.stoich_matrix() == b.stoich_matrix()


def test_mean_edge_count_n2():
    # edge count ~ Binomial(15, 0.1): mean 1.5, sd of the mean over 1e4
    # draws is sqrt(1.35 / 1e4)
    trials = 10_000
    total = sum(
        len(sample_edge_ranks(2, 0.1, seed)) for seed in range(trials)
    )
    mean = total / trials
    se = (15 * 0.1 * 0.9 / trials) ** 0.5
    assert abs(mean - 1.5) <= 3 * se


def test_sparse_sampler_matches_naive_in_distribution():
    # full 8-graph distribution for n=1, both samplers, chi-square against
    # the exact Binomial mixture
    draws = 100_000
    for p in (0.2, 0.5):
        exact = [
            draws * p ** bin(mask).count("1") * (1 - p) ** (3 - bin(mask).count("1"))
            for mask in range(8)
        ]
        for sampler in (sample_edge_ranks, naive_edge_ranks):
            counts = Counter(
                sum(1 << t for t in sampler(1, p, seed)) for seed in range(draws)
            )
            observed = [counts.get(mask, 0) for mask in range(8)]
            result = chisquare(observed, exact)
            assert result.pvalue > CHI2_LEVEL, (sampler.__name__, p, result)


def test_count_isolated():
    assert count_isolated(ReactionNetwork(2)) == 6
    assert count_isolated(two_paired_network()) == 2
    complete = sample_er_network(ErTrialConfig(2, 1.0, 0))
    assert count_isolated(complete) == 0


def test_k_paired_shape():
    for n, k in ((1, 1), (3, 2), (5, 5), (10, 12)):
        net = sample_k_paired(n, k, 77)
        assert net.is_paired() == (True, k)
        assert len(net.vertices) == 2 * k
        assert len(net.reactions) == 2 * k
    assert sample_k_paired(4, 0, 5) == ReactionNetwork(4)


def test_k_paired_domain_error():
    with pytest.raises(ValueError):
        sample_k_paired(1, 2, 0)  # universe has 3 vertices


def _refuse_to_draw(*args):
    pytest.fail("a generator was keyed for a request that should be refused")


@pytest.mark.parametrize("n, k, message", [
    (4_294_967_295, 1, "species count 4294967295 has more than 2\\*\\*63 vertices"),
    (10**30, 1, "has more than 2\\*\\*63 vertices"),
    (2000, 10**6 + 1, "k=1000001 asks for more than 1000000 pairs"),
])
def test_k_paired_refuses_before_drawing(monkeypatch, n, k, message):
    monkeypatch.setattr("defzero.sampler.generator", _refuse_to_draw)
    with pytest.raises(ValueError, match=message):
        sample_k_paired(n, k, 0)


def test_k_paired_largest_drawable_species_count():
    # numpy's integers(0, high) takes high <= 2**63
    assert universe_size(4_294_967_294) <= 2**63 < universe_size(4_294_967_295)
    assert sample_k_paired(4_294_967_294, 1, 0).is_paired() == (True, 1)
    assert sample_k_paired(10**30, 0, 0) == ReactionNetwork(10**30)  # draws nothing


def _pair_of(net):
    u, v = sorted(complex_to_index(net.n, c) for c in net.vertices)
    return u, v


def test_k_paired_n1_frequencies():
    draws = 10_000
    counts = Counter(_pair_of(sample_k_paired(1, 1, seed)) for seed in range(draws))
    assert set(counts) == {(0, 1), (0, 2), (1, 2)}
    se = (draws / 3 * (2 / 3)) ** 0.5
    for pair, count in counts.items():
        assert abs(count - draws / 3) <= 3 * se, (pair, count)


def test_k_paired_uniformity_chi_square():
    draws = 100_000
    for n in (1, 2):
        size = universe_size(n)
        support = list(combinations(range(size), 2))
        counts = Counter(_pair_of(sample_k_paired(n, 1, seed)) for seed in range(draws))
        observed = [counts.get(pair, 0) for pair in support]
        expected = [draws / len(support)] * len(support)
        result = chisquare(observed, expected)
        assert result.pvalue > CHI2_LEVEL, (n, result)


def test_k_paired_reaction_vectors_are_sign_columns():
    # whenever a reaction involves four distinct species its vector carries
    # two +1 and two -1, the sign-matrix column shape
    seen = 0
    for seed in range(200):
        net = sample_k_paired(30, 6, seed)
        for r in net.reactions:
            delta = [x for x in r.support_delta().values() if x]
            if len(delta) == 4:
                assert sorted(delta) == [-1, -1, 1, 1]
                seen += 1
    assert seen > 0


def test_sign_matrix_n4_k1():
    m = sample_sparse_sign_matrix(4, 1, 9)
    assert m.supports() == [(1, 2, 3, 4)]


def test_sign_matrix_column_structure():
    m = sample_sparse_sign_matrix(12, 8, 31)
    assert m.cols == 8
    for col in m.columns:
        assert sorted(x for x in col if x) == [-1, -1, 1, 1]
    assert len(set(m.supports())) == 8  # distinct without replacement


def test_sign_matrix_distinct_supports_at_capacity():
    total = comb(6, 4)
    m = sample_sparse_sign_matrix(6, total, 3)
    assert len(set(m.supports())) == total


def test_sign_matrix_domain_errors():
    with pytest.raises(ValueError):
        sample_sparse_sign_matrix(3, 1, 0)
    with pytest.raises(ValueError):
        sample_sparse_sign_matrix(4, 2, 0)


@pytest.mark.parametrize("n, k, message", [
    (121_978, 1, "n=121978 has more than 2\\*\\*63 four-species supports"),
    (10**9, 1, "n=1000000000, k=1 needs more than 100000000 matrix entries"),
    (10**30, 1, "needs more than 100000000 matrix entries"),
    (100_000, 1001, "n=100000, k=1001 needs more than 100000000 matrix entries"),
])
def test_sign_matrix_refuses_before_drawing(monkeypatch, n, k, message):
    monkeypatch.setattr("defzero.sampler.generator", _refuse_to_draw)
    with pytest.raises(ValueError, match=message):
        sample_sparse_sign_matrix(n, k, 0)


class _Drawn(Exception):
    pass


def test_sign_matrix_largest_drawable_size(monkeypatch):
    assert comb(121_977, 4) <= 2**63 < comb(121_978, 4)
    assert sample_sparse_sign_matrix(121_977, 1, 0).cols == 1
    assert sample_sparse_sign_matrix(10**30, 0, 0).cols == 0  # draws nothing

    # 10**5 rows by 1000 columns sit at the entry bound: accepted, and
    # stopped at the draw instead of allocating them
    def stop(seed):
        raise _Drawn

    monkeypatch.setattr("defzero.sampler.generator", stop)
    with pytest.raises(_Drawn):
        sample_sparse_sign_matrix(100_000, 1000, 0)


def test_sign_matrix_validation():
    with pytest.raises(ValueError):
        SparseSignMatrix(rows=4, columns=((1, 1, 1, -1),))
    with pytest.raises(ValueError):
        SparseSignMatrix(rows=3, columns=((1, 1, -1, -1),))


def test_independence_examples():
    single = sample_sparse_sign_matrix(8, 1, 2)
    assert is_columns_independent(single)
    # identical columns (same support, same signs) are dependent
    col = (1, 1, -1, -1, 0)
    dup = SparseSignMatrix(rows=5, columns=(col, col))
    assert not is_columns_independent(dup)
    # more columns than rows can never be independent
    wide = sample_sparse_sign_matrix(6, 7, 10)
    assert not is_columns_independent(wide)


def test_sign_split_frequencies():
    # each support splits into one of three +/- pairings, chosen uniformly
    draws = 6000
    counts = Counter()
    for seed in range(draws):
        col = sample_sparse_sign_matrix(4, 1, seed).columns[0]
        split = frozenset([
            frozenset(i for i, x in enumerate(col) if x == 1),
            frozenset(i for i, x in enumerate(col) if x == -1),
        ])
        counts[split] += 1
    assert len(counts) == 3
    se = (draws / 3 * (2 / 3)) ** 0.5
    for pair, count in counts.items():
        assert abs(count - draws / 3) <= 4 * se
