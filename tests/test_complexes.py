import random

import pytest
from hypothesis import given, strategies as st

from defzero import (
    Complex,
    complex_to_index,
    complex_vector,
    index_to_complex,
    universe_size,
)


def test_universe_size_values():
    assert universe_size(2) == 6
    assert universe_size(0) == 1
    assert universe_size(10) == 66


def test_universe_size_matches_direct_enumeration():
    for n in range(0, 20):
        # zeroth order, unary, and pairs (a, b) with a <= b
        by_count = 1 + n + sum(1 for a in range(1, n + 1) for _ in range(a, n + 1))
        assert universe_size(n) == by_count


def test_universe_size_rejects_negative():
    with pytest.raises(ValueError):
        universe_size(-1)


def test_canonical_order_n2():
    expected = [(), (1,), (2,), (1, 1), (1, 2), (2, 2)]
    assert [index_to_complex(2, i).species for i in range(6)] == expected


def test_index_examples():
    assert index_to_complex(2, 0) == Complex.zero()
    assert index_to_complex(3, 4) == Complex.binary(1, 1)
    assert complex_to_index(2, Complex.zero()) == 0
    assert complex_to_index(1, Complex.binary(1, 1)) == 2


def test_full_bijection_up_to_n50():
    for n in range(0, 51):
        for idx in range(universe_size(n)):
            assert complex_to_index(n, index_to_complex(n, idx)) == idx


@pytest.mark.parametrize("n", [10**6, 2**40 + 3, 2**64 + 1])
def test_roundtrip_and_order_at_large_n(n):
    # row a holds the pairs (a, a) .. (a, n); take both ends of sampled rows
    rng = random.Random(n)
    rows = {1, 2, n - 1, n} | {rng.randrange(1, n + 1) for _ in range(200)}
    indices = {0, 1, n, n + 1, universe_size(n) - 1}
    for a in rows:
        first = complex_to_index(n, Complex.binary(a, a))
        indices |= {first - 1, first, first + n - a, first + n - a + 1}
    indices |= {rng.randrange(universe_size(n)) for _ in range(500)}
    keys = []
    for idx in sorted(i for i in indices if 0 <= i < universe_size(n)):
        c = index_to_complex(n, idx)
        assert complex_to_index(n, c) == idx
        keys.append(c.sort_key())
    assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))


def test_index_out_of_range():
    with pytest.raises(IndexError):
        index_to_complex(2, 6)
    with pytest.raises(IndexError):
        index_to_complex(2, -1)


def test_complex_to_index_domain_errors():
    with pytest.raises(ValueError):
        complex_to_index(2, Complex.unary(3))
    with pytest.raises(ValueError):
        complex_to_index(5, Complex((1, 2, 3)))


def test_complex_vector_examples():
    assert complex_vector(2, Complex((1, 2))) == [1, 1]
    assert complex_vector(2, Complex((2, 2))) == [0, 2]
    assert complex_vector(3, Complex.zero()) == [0, 0, 0]


def test_vector_sum_is_molecularity():
    for n in (1, 2, 5):
        for idx in range(universe_size(n)):
            c = index_to_complex(n, idx)
            assert sum(complex_vector(n, c)) == c.order <= 2


def test_complex_normalizes_and_validates():
    assert Complex((2, 1)) == Complex((1, 2))
    assert Complex.from_counts({3: 2}) == Complex((3, 3))
    with pytest.raises(ValueError):
        Complex((0,))
    with pytest.raises(ValueError):
        Complex.from_counts({1: -1})


@given(st.integers(min_value=0, max_value=50), st.data())
def test_roundtrip_random_indices(n, data):
    idx = data.draw(st.integers(min_value=0, max_value=universe_size(n) - 1))
    c = index_to_complex(n, idx)
    assert complex_to_index(n, c) == idx
    assert c.order <= 2
