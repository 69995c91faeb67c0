"""Exact rank of sparse integer matrices.

Deficiency is an integer identity, so ranks are over the rationals, exact.
``rank_of_columns`` first peels (structured Gaussian elimination, LaMacchia
and Odlyzko 1990): a column that owns a row no other live column touches is
independent of the rest, so it is removed and counted, round after round.
A small core goes straight to fraction-free (Bareiss) elimination: after
each pivot step every entry is a minor of the original matrix, so dividing
by the previous pivot is an exact integer division.  A larger core is first
eliminated over GF(2^31 - 1) with numpy.  Rank over a prime field can only
undercount the rational rank, so reaching min(rows, cols) certifies it; a
short count falls back to Bareiss on the core.

``certify_independent`` only asks whether columns are independent, and
answers from certificates that need no elimination over Q or GF(p), or None
when none of them decides.
"""

from __future__ import annotations

from math import gcd
from operator import itemgetter

import numpy as np

PRIME = 2_147_483_647  # 2**31 - 1: a product of two residues fits in int64

# rank_of_columns sends a core whose shorter side is below this size straight
# to Bareiss, and a larger one to the numpy GF(p) elimination first.  A numpy
# step has tens of microseconds of call overhead, while a Bareiss step costs
# in proportion to the entries it touches, and its entries grow.  On random
# 4-sparse square integer matrices (2 cores, Python 3.11, numpy 2.4) Bareiss
# against numpy took 0.07 vs 0.19 ms at 16, 0.31 vs 0.35 ms at 28, 0.45 vs
# 0.42 ms at 32 and 1.33 vs 0.69 ms at 48, so they break even near 32.
_NUMPY_MIN_SIDE = 32

Matrix = list[list[int]]

_value = itemgetter(1)


def bareiss_rank(mat: Matrix) -> int:
    """Rank over the rationals by fraction-free integer elimination.

    The input is a list of rows and is not modified.
    """
    rows = [list(r) for r in mat]
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    rank = 0
    prev_pivot = 1
    for col in range(n_cols):
        if rank == n_rows:
            break
        pivot_row = None
        for r in range(rank, n_rows):
            if rows[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        if pivot_row != rank:
            rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank][col]
        top = rows[rank]
        for r in range(rank + 1, n_rows):
            row = rows[r]
            factor = row[col]
            if factor:
                for c in range(col + 1, n_cols):
                    row[c] = (pivot * row[c] - factor * top[c]) // prev_pivot
                row[col] = 0
            elif prev_pivot != pivot:
                for c in range(col + 1, n_cols):
                    row[c] = pivot * row[c] // prev_pivot
        prev_pivot = pivot
        rank += 1
    return rank


def rank_mod_prime(mat: Matrix) -> int:
    """Rank over GF(PRIME); a lower bound for the rank over the rationals.

    The input is a list of rows and is not modified.
    """
    if not mat:
        return 0  # np.array([]) has no column axis
    a = np.array(mat, dtype=np.int64) % PRIME
    rank = 0
    for col in range(a.shape[1]):
        if rank == a.shape[0]:
            break
        # Swapping the first hit up leaves the other hits as the rows to clear.
        hits = rank + np.flatnonzero(a[rank:, col])
        if hits.size:
            a[[rank, hits[0]]] = a[[hits[0], rank]]
            below = hits[1:]
            factor = a[below, col] * pow(int(a[rank, col]), -1, PRIME) % PRIME
            a[below, col:] = (a[below, col:] - factor[:, None] * a[rank, col:] % PRIME) % PRIME
            rank += 1
    return rank


def _peel(vectors: list) -> tuple[int, list]:
    """Remove vectors that own a row no other live vector touches, round
    after round; returns the number removed and the core that remains.
    Rows are non-negative integers, so a vector's support is a bitmask."""
    masks = []
    for vec in vectors:
        mask = 0
        for r, _ in vec:
            mask |= 1 << r
        masks.append(mask)
    peeled = 0
    while True:
        seen = shared = 0
        for mask in masks:
            shared |= seen & mask
            seen |= mask
        owned = seen & ~shared
        if not owned:
            return peeled, vectors
        keep = [j for j, mask in enumerate(masks) if not mask & owned]
        peeled += len(masks) - len(keep)
        vectors = [vectors[j] for j in keep]
        masks = [masks[j] for j in keep]


def _canonical(columns) -> list[tuple]:
    """Each column's non-zero (row, value) pairs in row order, signed so
    that the first value is positive: a column and its negation span the
    same line.  A zero column gives the empty tuple."""
    vecs = []
    for col in columns:
        if isinstance(col, dict):
            vec = tuple(sorted(filter(_value, col.items())))
        else:
            vec = tuple(filter(_value, enumerate(col)))
        if vec and vec[0][1] < 0:
            vec = tuple([(r, -x) for r, x in vec])
        vecs.append(vec)
    return vecs


def certify_independent(columns) -> bool | None:
    """Whether the columns are linearly independent over the rationals, when
    an exact certificate decides it, else None.

    Columns are as for rank_of_columns.  The certificates, in order: a zero,
    repeated or negated column means dependent; the peeled columns are
    independent of the rest, so only the core is left to decide, and an
    empty core is independent; a core with more columns than rows is
    dependent; a core independent over GF(2), once each column is divided
    by the gcd of its entries, is independent over Q, since a rational
    dependency scaled to coprime integers stays one mod 2.  A GF(2)
    dependency proves nothing over Q, so it gives None.
    """
    vecs = _canonical(columns)
    kept = set(vecs)
    if len(kept) < len(vecs) or () in kept:
        return False
    core = _peel(list(kept))[1]
    if len(core) > len({r for vec in core for r, _ in vec}):
        return False
    basis: dict[int, int] = {}  # top bit -> reduced vector mod 2
    for vec in core:
        g = gcd(*(x for _, x in vec))
        mask = 0
        for r, x in vec:
            if x // g & 1:
                mask |= 1 << r
        while mask:
            top = mask.bit_length()
            if top not in basis:
                basis[top] = mask
                break
            mask ^= basis[top]
        else:
            return None
    return True


def rank_of_columns(columns, n_rows: int) -> int:
    """Exact rank of the matrix whose columns are the given integer vectors.

    A column is either a dense sequence of n_rows integers or a sparse
    {row: value} map with non-negative integer rows; absent rows are zero.
    Duplicate columns, negated duplicates, and zero columns are dropped
    before elimination; none of them affect the rank.
    """
    kept = set(_canonical(columns))
    kept.discard(())
    peeled, core = _peel(list(kept))
    if not core:
        return peeled
    pos: dict[int, int] = {}  # row label -> matrix row, in order of first use
    for vec in core:
        for r, _ in vec:
            pos.setdefault(r, len(pos))
    mat = [[0] * len(core) for _ in pos]
    for j, vec in enumerate(core):
        for r, x in vec:
            mat[pos[r]][j] = x
    side = min(len(pos), len(core))
    if side >= _NUMPY_MIN_SIDE and rank_mod_prime(mat) == side:
        return peeled + side
    return peeled + bareiss_rank(mat)
