"""Reaction networks and their deficiency.

A network is a set of directed reactions between distinct complexes; its
vertex set is derived, so isolated complexes cannot occur.  The deficiency
is

    deficiency = #complexes - #components - rank(stoichiometric matrix)

with components taken in the undirected support graph and the rank computed
exactly over the integers.  The per-component version uses each component's
own reactions and #components = 1.

Everything rests on one spanning forest of the support graph, found once per
network by union-find.  Every reaction vector of a component is a sum of
the vectors of its spanning-tree edges, so each component's rank is the
rank of its forest vectors and the total rank is the rank of all forest
vectors.  The forest has #complexes - #components edges, so the deficiency
is zero exactly when the forest vectors are linearly independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .complexes import Complex, index_to_complex
from .exactrank import rank_of_columns


@dataclass(frozen=True)
class Reaction:
    """A directed edge source -> product between two distinct complexes."""

    source: Complex
    product: Complex

    def __post_init__(self) -> None:
        if self.source == self.product:
            raise ValueError("a reaction needs distinct source and product complexes")

    def vector(self, n: int) -> list[int]:
        """Net molecule change per occurrence: product - source, length n."""
        vec = self.product.vector(n)
        for s in self.source.species:
            vec[s - 1] -= 1
        return vec

    def support_delta(self) -> dict[int, int]:
        """Sparse net change: species id -> count, non-zero entries only."""
        delta = self.product.counts()
        for s in self.source.species:
            delta[s] = delta.get(s, 0) - 1
        return {s: x for s, x in delta.items() if x}

    def reverse(self) -> "Reaction":
        return Reaction(self.product, self.source)

    def sort_key(self):
        return (self.source.sort_key(), self.product.sort_key())


@dataclass(frozen=True)
class ComponentReport:
    """Size, rank and deficiency of one connected component."""

    complex_count: int
    rank: int
    deficiency: int


@dataclass(frozen=True)
class DeficiencyReport:
    num_complexes: int
    num_components: int
    rank: int
    deficiency: int
    components: tuple[ComponentReport, ...]
    is_paired: bool

    def to_dict(self) -> dict:
        # vars, not asdict: asdict copies value by value, about 7 us per
        # component, which is 15 times this and 1.4 ms on a 200-component report
        return {**vars(self), "components": [dict(vars(c)) for c in self.components]}


def _union_find(
    reactions: Iterable[Reaction], limit: int | None = None
) -> tuple[dict[Complex, int], list[Reaction]]:
    """Each vertex's component root, and the reactions that join two
    components when they are met: a spanning forest.  With a limit the
    search stops once the forest has more than limit edges, and both results
    are partial."""
    index: dict[Complex, int] = {}
    parent: list[int] = []

    def find(i: int) -> int:
        if i == len(parent):  # a vertex met for the first time
            parent.append(i)
            return i
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:  # path compression
            parent[i], i = root, parent[i]
        return root

    forest = []
    for r in reactions:
        u = find(index.setdefault(r.source, len(index)))
        v = find(index.setdefault(r.product, len(index)))
        if u != v:
            parent[u] = v
            forest.append(r)
            if limit is not None and len(forest) > limit:
                break
    return {c: find(i) for c, i in index.items()}, forest


@dataclass(frozen=True)
class StoichMatrix:
    """One integer column per directed reaction, in canonical reaction order."""

    rows: int
    columns: tuple[tuple[int, ...], ...]

    @property
    def cols(self) -> int:
        return len(self.columns)


@dataclass(frozen=True)
class ReactionNetwork:
    """An immutable reaction network over species S1..Sn."""

    n: int
    reactions: frozenset[Reaction] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "reactions", frozenset(self.reactions))
        if self.n < 0:
            raise ValueError(f"species count must be non-negative, got {self.n}")
        for r in self.reactions:
            for c in (r.source, r.product):
                if c.species and c.species[-1] > self.n:
                    raise ValueError(
                        f"reaction uses species S{c.species[-1]} but n={self.n}"
                    )

    @classmethod
    def from_edge_list(cls, n: int, edges: Iterable) -> "ReactionNetwork":
        """Network with a reversible reaction pair for each undirected edge.

        Edges are unordered pairs of complex indices in the n-species
        universe (any 2-element sequence or set).  An index outside the
        universe raises IndexError (index_to_complex) and a self-pair raises
        ValueError (Reaction).
        """
        reactions = set()
        for edge in edges:
            u, v = tuple(edge)
            cu, cv = index_to_complex(n, u), index_to_complex(n, v)
            reactions.add(Reaction(cu, cv))
            reactions.add(Reaction(cv, cu))
        return cls(n, frozenset(reactions))

    @cached_property
    def vertices(self) -> frozenset[Complex]:
        """Complexes appearing in some reaction (degree >= 1 by construction)."""
        verts = set()
        for r in self.reactions:
            verts.add(r.source)
            verts.add(r.product)
        return frozenset(verts)

    def sorted_reactions(self) -> list[Reaction]:
        return sorted(self.reactions, key=Reaction.sort_key)

    def _spanning_forest(
        self, limit: int | None = None
    ) -> tuple[dict[Complex, int], list[Reaction]]:
        """The union-find result, kept once a search has run to the end.
        With a limit the search may stop early (see _union_find)."""
        found = self.__dict__.get("_forest")
        if found is None:
            found = _union_find(self.reactions, limit)
            if limit is None or len(found[1]) <= limit:
                object.__setattr__(self, "_forest", found)
        return found

    def forest_size(self, limit: int | None = None) -> int:
        """Edges in a spanning forest of the undirected support graph, that
        is #complexes - #components.  With a limit the count stops at
        limit + 1, so a dense network is not searched to the end."""
        return len(self._spanning_forest(limit)[1])

    def forest_vectors(self) -> list[dict[int, int]]:
        """The sparse reaction vectors of a spanning forest's edges, in the
        order union-find met them.  They span the stoichiometric subspace,
        and they are independent exactly when the deficiency is zero."""
        return [r.support_delta() for r in self._spanning_forest()[1]]

    def connected_components(self) -> list[frozenset[Complex]]:
        """Components of the undirected support graph, ordered by their
        smallest vertex in the canonical complex order."""
        roots, _ = self._spanning_forest()
        groups: dict[int, list[Complex]] = {}
        for c in sorted(roots, key=Complex.sort_key):
            groups.setdefault(roots[c], []).append(c)
        return [frozenset(g) for g in groups.values()]

    def stoich_matrix(self) -> StoichMatrix:
        cols = tuple(tuple(r.vector(self.n)) for r in self.sorted_reactions())
        return StoichMatrix(rows=self.n, columns=cols)

    def stoich_rank(self) -> int:
        """Dimension of the span of all reaction vectors (exact)."""
        return rank_of_columns(self.forest_vectors(), self.n)

    def deficiency(self) -> DeficiencyReport:
        comps = self.connected_components()
        roots, forest = self._spanning_forest()
        # every vertex of a component carries the component's root
        index = {roots[next(iter(comp))]: j for j, comp in enumerate(comps)}
        comp_vectors: list[list[dict[int, int]]] = [[] for _ in comps]
        for r, vec in zip(forest, self.forest_vectors()):
            comp_vectors[index[roots[r.source]]].append(vec)
        reports = []
        for comp, vectors in zip(comps, comp_vectors):
            s_j = rank_of_columns(vectors, self.n)
            reports.append(
                ComponentReport(
                    complex_count=len(comp),
                    rank=s_j,
                    deficiency=len(comp) - 1 - s_j,
                )
            )
        rank = rank_of_columns([v for vs in comp_vectors for v in vs], self.n)
        num_complexes = len(roots)
        num_components = len(comps)
        return DeficiencyReport(
            num_complexes=num_complexes,
            num_components=num_components,
            rank=rank,
            deficiency=num_complexes - num_components - rank,
            components=tuple(reports),
            is_paired=all(r.complex_count == 2 for r in reports),
        )

    def is_paired(self) -> tuple[bool, int]:
        """Whether every component has exactly two vertices, and how many
        components there are.  The empty network is vacuously paired."""
        comps = self.connected_components()
        return all(len(c) == 2 for c in comps), len(comps)

    def paired_def_zero(self) -> bool:
        """Deficiency-zero test for paired networks: their forest has one
        reaction per component, so this checks that those reaction vectors
        are linearly independent.  Agrees with deficiency() == 0 whenever
        the network is paired."""
        if not self.is_paired()[0]:
            raise ValueError("paired_def_zero requires a paired network")
        return self.deficiency().deficiency == 0

    def add_reaction(self, reaction: Reaction) -> "ReactionNetwork":
        """A new network with one more reaction; deficiency never decreases."""
        if reaction in self.reactions:
            raise ValueError("reaction is already present")
        return ReactionNetwork(self.n, self.reactions | {reaction})

    def reverse_all(self) -> "ReactionNetwork":
        """The network with every reaction direction flipped."""
        return ReactionNetwork(self.n, frozenset(r.reverse() for r in self.reactions))
