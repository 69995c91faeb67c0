from itertools import product

import numpy as np
from hypothesis import given, strategies as st

from defzero import exactrank
from defzero.exactrank import bareiss_rank, certify_independent, rank_mod_prime, rank_of_columns
from support import minor_rank


def test_exhaustive_2x2():
    vals = range(-2, 3)
    for a, b, c, d in product(vals, repeat=4):
        mat = [[a, b], [c, d]]
        assert bareiss_rank(mat) == minor_rank(mat)
        assert rank_mod_prime(mat) == minor_rank(mat)


def test_rectangular_against_oracle():
    rng = np.random.default_rng(99)
    for _ in range(2000):
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 5))
        mat = [[int(rng.integers(-2, 3)) for _ in range(cols)] for _ in range(rows)]
        assert bareiss_rank(mat) == minor_rank(mat)


def test_degenerate_shapes():
    assert bareiss_rank([]) == 0
    assert bareiss_rank([[0, 0]]) == 0
    assert rank_mod_prime([]) == 0
    assert rank_mod_prime([[]]) == 0
    assert rank_mod_prime([[0, 0]]) == 0
    assert rank_of_columns([], 3) == 0
    assert rank_of_columns([(0, 0, 0)], 3) == 0


def test_rank_of_columns_dedupes_but_counts_right():
    # duplicate and negated columns never change the rank
    cols = [(1, 0), (1, 0), (-1, 0), (0, 2)]
    assert rank_of_columns(cols, 2) == 2
    # ... in sparse form too, and mixed with the dense form
    assert rank_of_columns([{0: 1}, {0: -1, 1: 0}, {1: 2}], 2) == 2
    assert rank_of_columns([(1, 0), {0: -1}, {}, {1: 2}], 2) == 2


def test_fast_path_agrees_with_fallback_on_deficient_matrices():
    rng = np.random.default_rng(7)
    for _ in range(500):
        rows = int(rng.integers(2, 6))
        base = [int(rng.integers(-2, 3)) for _ in range(rows)]
        scaled = [2 * x for x in base]
        filler = [[int(rng.integers(-2, 3)) for _ in range(rows)] for _ in range(2)]
        cols = [tuple(base), tuple(scaled)] + [tuple(f) for f in filler]
        mat = [[col[r] for col in cols] for r in range(rows)]
        assert rank_of_columns(cols, rows) == minor_rank(mat)
        sparse = [{r: x for r, x in enumerate(col) if x} for col in cols]
        assert rank_of_columns(sparse, rows) == minor_rank(mat)


def _four_sparse(rng, rows, cols):
    mat = [[0] * cols for _ in range(rows)]
    for j in range(cols):
        for r in rng.choice(rows, size=4, replace=False):
            mat[int(r)][j] = int(rng.choice([-2, -1, 1, 2]))
    return mat


def test_numpy_elimination_agrees_with_list_and_exact_kernels():
    # Shapes on both sides of the numpy crossover, full rank and deficient:
    # the appended columns combine two earlier ones, so add nothing to the rank.
    rng = np.random.default_rng(31)
    side = exactrank._NUMPY_MIN_SIDE
    short = full = 0
    for rows, cols, extra in ((side, side, 0), (side + 16, side, 5), (side, side + 20, 3),
                              (2 * side, side + 1, 8), (side - 1, side - 1, 2)):
        base = _four_sparse(rng, rows, cols - extra)
        for _ in range(extra):
            a, b = (int(i) for i in rng.choice(cols - extra, size=2, replace=False))
            for row in base:
                row.append(row[a] - 2 * row[b])
        expected = bareiss_rank(base)
        assert rank_mod_prime(base) == expected
        columns = [{r: row[j] for r, row in enumerate(base) if row[j]} for j in range(cols)]
        assert rank_of_columns(columns, rows) == expected
        short += expected < min(rows, cols)
        full += expected == min(rows, cols)
    assert short and full


def test_small_cores_skip_the_prime_field(monkeypatch):
    # A dense deficient core (no entry zero, so nothing peels): below the
    # crossover it goes to Bareiss alone, at it the prime field runs once and,
    # falling short, hands over to Bareiss.
    calls = []

    def counting(mat):
        calls.append(len(mat))
        return rank_mod_prime(mat)

    monkeypatch.setattr(exactrank, "rank_mod_prime", counting)
    rng = np.random.default_rng(5)
    side = exactrank._NUMPY_MIN_SIDE
    for size, expected_calls in ((side - 1, 0), (side, 1)):
        base = [[int(x) for x in rng.choice([-2, -1, 1, 2], size=size - 1)] for _ in range(size)]
        for row in base:
            row.append(row[0] + row[1])
        columns = [tuple(row[j] for row in base) for j in range(size)]
        calls.clear()
        assert rank_of_columns(columns, size) == bareiss_rank(base) == size - 1
        assert len(calls) == expected_calls


@given(
    st.lists(
        st.lists(st.integers(min_value=-2, max_value=2), min_size=3, max_size=3),
        min_size=1,
        max_size=5,
    )
)
def test_rank_is_transpose_invariant(mat):
    transpose = [list(col) for col in zip(*mat)]
    assert bareiss_rank(mat) == bareiss_rank(transpose)


@given(
    st.lists(
        st.lists(st.integers(min_value=-2, max_value=2), min_size=4, max_size=4),
        min_size=1,
        max_size=4,
    )
)
def test_bareiss_matches_oracle_property(mat):
    assert bareiss_rank(mat) == minor_rank(mat)


def test_certificate_repeated_columns_are_dependent():
    assert certify_independent([{1: 1, 2: -1}, {3: 1}, {1: 1, 2: -1}]) is False
    assert certify_independent([{1: 1, 2: -1}, {3: 1}, {1: -1, 2: 1}]) is False
    assert certify_independent([(1, 0), (0, 0)]) is False


def test_certificate_core_that_peels_to_empty_is_independent():
    # the outer columns own rows 1 and 3 and peel first; then the middle
    # one owns row 2
    assert certify_independent([{1: 1, 2: 1}, {2: -1}, {2: 1, 3: 2}]) is True


def test_certificate_wide_core_is_dependent():
    # three columns share rows 1 and 2 and own none
    assert certify_independent([{1: 1, 2: 1}, {1: 1, 2: -1}, {1: 2, 2: 1}]) is False


def test_certificate_gf2_dependency_is_not_a_rational_one():
    # the triangle is independent over Q (determinant 2) but sums to zero mod 2
    triangle = [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}]
    assert minor_rank([[1, 0, 1], [1, 1, 0], [0, 1, 1]]) == 3
    assert certify_independent(triangle) is None


def test_certificate_divides_out_the_gcd_before_reducing_mod_2():
    # every entry is even, so without the division both columns vanish mod 2;
    # divided, they are (1, 1) and (1, 2), independent mod 2
    assert certify_independent([{0: 2, 1: 2}, {0: 2, 1: 4}]) is True


@given(
    st.lists(
        st.lists(st.integers(min_value=-2, max_value=2), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_certificate_agrees_with_the_minor_oracle(cols):
    verdict = certify_independent(cols)
    if verdict is not None:
        mat = [list(row) for row in zip(*cols)]
        assert verdict == (minor_rank(mat) == len(cols))
