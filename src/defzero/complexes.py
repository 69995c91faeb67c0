"""Canonical enumeration of the complexes that can be built from n species.

With molecularity capped at two, n species admit (n^2 + 3n + 2)/2 distinct
complexes: the empty complex, n unary ones, and n(n+1)/2 two-molecule ones
(2*Sa counts once, as the pair (a, a)).  This module fixes one indexing of
that universe and provides the conversions between indices, complexes, and
species-count vectors.

The index order is part of the reproducibility contract: seeded samplers
identify vertices by index, so the order must never change.  It is

    0                -> the empty complex
    1 .. n           -> Sa for a = 1 .. n
    n+1 .. size-1    -> Sa + Sb for 1 <= a <= b <= n, pairs (a, b) in
                        lexicographic order: (1,1), (1,2), ..., (1,n),
                        (2,2), ..., (n,n)

Vertex pairs have one colex unranking, unrank_edge: rank t is the pair
(i, j), i < j, with j = (1 + isqrt(8t + 1)) // 2 and i = t - j(j-1)/2, i.e.
(0,1), (0,2), (1,2), (0,3), ...  The lexicographic pairs a <= b above are
the colex pairs (n - b, n + 1 - a) of 0..n in reverse order, so
index_to_complex unranks through it too and complex_to_index inverts it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt


@dataclass(frozen=True)
class Complex:
    """A reaction-network vertex: a multiset of species, as a sorted tuple.

    The empty complex is ``()``, S3 is ``(3,)``, 2*S3 is ``(3, 3)`` and
    S1 + S2 is ``(1, 2)``.  Sorting makes the representation unique, so
    structural equality and hashing come for free.  Molecularity is not
    capped here: parsed files may carry three or more molecules per complex
    and still flow through the deficiency machinery; only the indexed
    universe is restricted to molecularity <= 2.
    """

    species: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        spec = tuple(sorted(self.species))
        if spec and spec[0] < 1:
            raise ValueError(f"species ids are 1-based, got {spec[0]}")
        object.__setattr__(self, "species", spec)

    @classmethod
    def zero(cls) -> "Complex":
        return cls(())

    @classmethod
    def unary(cls, a: int) -> "Complex":
        return cls((a,))

    @classmethod
    def binary(cls, a: int, b: int) -> "Complex":
        return cls((a, b))

    @classmethod
    def from_counts(cls, counts: dict[int, int]) -> "Complex":
        """Build a complex from a species -> molecule-count mapping."""
        parts: list[int] = []
        for species_id, count in counts.items():
            if count < 0:
                raise ValueError(f"negative molecule count for S{species_id}")
            parts.extend([species_id] * count)
        return cls(tuple(parts))

    @property
    def order(self) -> int:
        """Total molecularity (0 for the empty complex)."""
        return len(self.species)

    def counts(self) -> dict[int, int]:
        """Species -> molecule count, omitting absent species."""
        out: dict[int, int] = {}
        for s in self.species:
            out[s] = out.get(s, 0) + 1
        return out

    def vector(self, n: int) -> list[int]:
        """Dense molecule-count vector of length n."""
        if self.species and self.species[-1] > n:
            raise ValueError(
                f"complex uses species S{self.species[-1]} but n={n}"
            )
        vec = [0] * n
        for s in self.species:
            vec[s - 1] += 1
        return vec

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        """Canonical ordering key: by molecularity, then species tuple.

        For molecularity <= 2 this agrees with the universe index order.
        """
        return (len(self.species), self.species)


def universe_size(n: int) -> int:
    """Number of distinct complexes of molecularity <= 2 over n species."""
    if n < 0:
        raise ValueError(f"species count must be non-negative, got {n}")
    return (n * n + 3 * n + 2) // 2


def vertex_pair_count(n: int) -> int:
    """M, the unordered vertex pairs of the n-species universe: the number
    of possible edges of an Erdos-Renyi draw."""
    size = universe_size(n)
    return size * (size - 1) // 2


def unrank_edge(t: int) -> tuple[int, int]:
    """Vertex pair (i, j), i < j, at colex rank t."""
    j = (1 + isqrt(8 * t + 1)) // 2
    i = t - j * (j - 1) // 2
    return i, j


def index_to_complex(n: int, idx: int) -> Complex:
    """Complex at position idx in the canonical order of the n-species universe."""
    size = universe_size(n)
    if not 0 <= idx < size:
        raise IndexError(f"index {idx} outside [0, {size}) for n={n}")
    if idx == 0:
        return Complex.zero()
    if idx <= n:
        return Complex.unary(idx)
    # lex position t = idx - n - 1 is colex rank n(n+1)/2 - 1 - t
    i, j = unrank_edge(n * (n + 1) // 2 + n - idx)
    return Complex.binary(n + 1 - j, n - i)


def complex_to_index(n: int, c: Complex) -> int:
    """Exact inverse of index_to_complex."""
    if c.species and c.species[-1] > n:
        raise ValueError(f"complex uses species S{c.species[-1]} but n={n}")
    if c.order == 0:
        return 0
    if c.order == 1:
        return c.species[0]
    if c.order == 2:
        a, b = c.species
        j, i = n + 1 - a, n - b  # the colex pair (i, j) of index_to_complex
        return n * (n + 1) // 2 + n - (j * (j - 1) // 2 + i)
    raise ValueError(f"molecularity {c.order} complex is outside the indexed universe")


def complex_vector(n: int, c: Complex) -> list[int]:
    """Molecule-count vector of c over species 1..n."""
    return c.vector(n)
