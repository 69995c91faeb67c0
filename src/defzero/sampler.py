"""Seeded random generators for networks and sign matrices.

The Erdos-Renyi sampler works edge-count-first: draw the number of edges
from Binomial(M, p) over the M = N(N-1)/2 unordered vertex pairs, then pick
that many distinct pair ranks uniformly (Floyd's algorithm).  This is equal
in law to M independent Bernoulli trials but costs O(edges) instead of
O(N^2), which matters because the interesting regime has p far below 1/N.

Pair ranks map to vertex pairs through complexes.unrank_edge, a fixed colex
unranking that is part of the reproducibility contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .complexes import universe_size, unrank_edge, vertex_pair_count
from .exactrank import rank_of_columns
from .network import ReactionNetwork
from .rng import generator


# Sampling one edge and building its reversible reaction pair peaks at 740 to
# 820 bytes (tracemalloc, draws of 2e4 to 1e5 edges), so a draw of this many
# expected edges needs about 0.8 GB.  A larger request is refused before any
# edge is drawn: at p = 1 the sampler would first build range(M) as a set.
_MAX_EXPECTED_EDGES = 10**6

# numpy takes the binomial's trial count, the pair count M, as a signed 64-bit
# integer; M reaches 2**63 at n = 92,681.
_MAX_DRAWN_PAIRS = 2**63 - 1

# numpy's integers(0, high) takes high <= 2**63.  A k-paired draw picks
# vertices below universe_size(n), past that from n = 4,294,967,295; a sign
# matrix picks supports below comb(n, 4), past it from n = 121,978.
_MAX_INTEGERS_HIGH = 2**63

# A sign matrix holds k dense length-n columns at 8.2 to 8.9 bytes per entry
# (tracemalloc, n = 2e4 to 4e4, k = 50), so this many entries need about
# 0.85 GB.  A k-paired pair costs about 1,000 bytes (k = 2e4), so it shares
# the edge bound _MAX_EXPECTED_EDGES.
_MAX_MATRIX_ENTRIES = 10**8


def check_species_count(n: int, drawn: bool = True) -> int:
    """M, the vertex pairs of the n-species universe.  Refuses n < 1 and,
    when edges are drawn, an M that numpy cannot draw from."""
    if n < 1:
        raise ValueError(f"species count must be >= 1, got {n}")
    total_pairs = vertex_pair_count(n)
    if drawn and total_pairs > _MAX_DRAWN_PAIRS:
        raise ValueError(f"species count {n} has 2**63 or more vertex pairs to draw from")
    return total_pairs


@dataclass(frozen=True)
class ErTrialConfig:
    """One Erdos-Renyi draw: species count, edge probability, seed."""

    n: int
    p: float
    seed: int

    def __post_init__(self) -> None:
        total_pairs = check_species_count(self.n, drawn=False)
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"edge probability p must be in [0, 1], got {self.p}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        # p > limit / M, not p * M > limit: M may be too large for a float
        if self.p > _MAX_EXPECTED_EDGES / total_pairs:
            raise ValueError(
                f"n={self.n}, p={self.p} expects more than {_MAX_EXPECTED_EDGES} edges"
            )
        if self.p > 0.0:  # p = 0 draws nothing, so any M will do
            check_species_count(self.n)


def _sample_distinct(rng, upper: int, count: int) -> set[int]:
    """Uniform count-subset of range(upper), by Floyd's algorithm."""
    chosen: set[int] = set()
    for j in range(upper - count, upper):
        t = int(rng.integers(0, j + 1))
        chosen.add(j if t in chosen else t)
    return chosen


def sample_edge_ranks(n: int, p: float, seed: int) -> set[int]:
    """Edge set of one G(N, p) draw over the n-species universe, as colex
    pair ranks.  Identical in distribution to per-pair Bernoulli sampling."""
    total_pairs = vertex_pair_count(n)
    if p == 0.0:
        return set()
    if p == 1.0:
        return set(range(total_pairs))
    rng = generator(seed)
    count = int(rng.binomial(total_pairs, p))
    return _sample_distinct(rng, total_pairs, count)


def sample_er_network(cfg: ErTrialConfig) -> ReactionNetwork:
    """The reaction network of one Erdos-Renyi draw: every sampled edge
    becomes a reversible reaction pair, isolated vertices drop out."""
    edges = [unrank_edge(t) for t in sample_edge_ranks(cfg.n, cfg.p, cfg.seed)]
    return ReactionNetwork.from_edge_list(cfg.n, edges)


def count_isolated(net: ReactionNetwork) -> int:
    """Vertices of the n-species universe that the network does not touch."""
    return universe_size(net.n) - len(net.vertices)


def sample_k_paired(n: int, k: int, seed: int) -> ReactionNetwork:
    """Uniform draw over all k-paired networks: k disjoint vertex pairs,
    each a reversible reaction.

    Selecting 2k distinct vertices sequentially and pairing them in order
    of selection over-counts each pairing by the same k! * 2^k factor, so
    the induced distribution on pairings is uniform.
    """
    size = universe_size(n)
    if 2 * k > size:
        raise ValueError(f"cannot place {k} disjoint pairs on {size} vertices")
    if k > _MAX_EXPECTED_EDGES:
        raise ValueError(f"k={k} asks for more than {_MAX_EXPECTED_EDGES} pairs")
    if k > 0 and size > _MAX_INTEGERS_HIGH:  # k = 0 draws nothing
        raise ValueError(f"species count {n} has more than 2**63 vertices to draw from")
    rng = generator(seed)
    picked: list[int] = []
    taken: set[int] = set()
    while len(picked) < 2 * k:
        v = int(rng.integers(0, size))
        if v not in taken:
            taken.add(v)
            picked.append(v)
    edges = [(picked[i], picked[i + 1]) for i in range(0, 2 * k, 2)]
    return ReactionNetwork.from_edge_list(n, edges)


@dataclass(frozen=True)
class SparseSignMatrix:
    """Integer matrix whose columns each carry exactly four non-zeros:
    two +1 and two -1.  This is the shape of the reaction vector of a
    reversible binary reaction involving four distinct species."""

    rows: int
    columns: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for col in self.columns:
            if len(col) != self.rows:
                raise ValueError("column length does not match row count")
            if sorted(x for x in col if x) != [-1, -1, 1, 1]:
                raise ValueError("each column needs exactly two +1 and two -1 entries")

    @property
    def cols(self) -> int:
        return len(self.columns)

    def supports(self) -> list[tuple[int, ...]]:
        """1-based non-zero row indices of each column."""
        return [
            tuple(i + 1 for i, x in enumerate(col) if x) for col in self.columns
        ]


def _unrank_four_subset(rank: int, n: int) -> tuple[int, int, int, int]:
    # Colex combinadic unranking of a 4-subset of {0..n-1}, returned 1-based.
    out = [0] * 4
    k = 4
    while k:
        lo, hi = k - 1, n - 1
        while lo < hi:  # largest c with comb(c, k) <= rank
            mid = (lo + hi + 1) // 2
            if comb(mid, k) <= rank:
                lo = mid
            else:
                hi = mid - 1
        rank -= comb(lo, k)
        k -= 1
        out[k] = lo
    return tuple(x + 1 for x in out)


# The three ways to split four support positions into a +1 pair and a -1 pair,
# before the orientation coin flip.
_SPLITS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


def sample_sparse_sign_matrix(n: int, k: int, seed: int) -> SparseSignMatrix:
    """k columns with distinct supports drawn uniformly without replacement
    from the 4-subsets of {1..n}; each support gets a uniformly random split
    into a +1 pair and a -1 pair (3 splits x 2 orientations)."""
    if n < 4:
        raise ValueError(f"need at least 4 rows, got {n}")
    total = comb(n, 4)
    if k > total:
        raise ValueError(f"cannot pick {k} distinct supports out of {total}")
    if k * n > _MAX_MATRIX_ENTRIES:
        raise ValueError(f"n={n}, k={k} needs more than {_MAX_MATRIX_ENTRIES} matrix entries")
    if k > 0 and total > _MAX_INTEGERS_HIGH:  # k = 0 draws nothing
        raise ValueError(f"n={n} has more than 2**63 four-species supports to draw from")
    rng = generator(seed)
    ranks = sorted(_sample_distinct(rng, total, k))
    columns = []
    for r in ranks:
        support = _unrank_four_subset(r, n)
        plus, minus = _SPLITS[int(rng.integers(0, 3))]
        if int(rng.integers(0, 2)):
            plus, minus = minus, plus
        col = [0] * n
        for pos in plus:
            col[support[pos] - 1] = 1
        for pos in minus:
            col[support[pos] - 1] = -1
        columns.append(tuple(col))
    return SparseSignMatrix(rows=n, columns=tuple(columns))


def is_columns_independent(m: SparseSignMatrix) -> bool:
    """Whether the columns are linearly independent (exact rational rank)."""
    return rank_of_columns(m.columns, m.rows) == m.cols
