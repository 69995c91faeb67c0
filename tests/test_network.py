import numpy as np
import pytest

from defzero import (
    Complex,
    ErTrialConfig,
    Reaction,
    ReactionNetwork,
    complex_to_index,
    parse_network,
    sample_er_network,
    to_reaction_network,
)
from defzero.exactrank import bareiss_rank
from defzero.rng import derive_seed
from support import (
    enzyme_network,
    deficiency_one_network,
    two_paired_network,
    minor_rank,
    reversible,
    three_paired_network,
)


def test_reaction_rejects_equal_endpoints():
    c = Complex.unary(1)
    with pytest.raises(ValueError):
        Reaction(c, Complex((1,)))


def test_reaction_vector():
    r = Reaction(Complex((1, 2)), Complex((2, 2)))
    assert r.vector(2) == [-1, 1]
    assert r.reverse().vector(2) == [1, -1]


def test_network_validates_species_bound():
    with pytest.raises(ValueError):
        ReactionNetwork(1, frozenset([Reaction(Complex.zero(), Complex.unary(2))]))


def test_empty_network():
    net = ReactionNetwork(3)
    rep = net.deficiency()
    assert (rep.num_complexes, rep.num_components, rep.rank, rep.deficiency) == (0, 0, 0, 0)
    assert net.is_paired() == (True, 0)
    assert net.paired_def_zero() is True
    assert net.connected_components() == []


def test_enzyme_kinetics_report():
    rep = enzyme_network().deficiency()
    assert rep.num_complexes == 6
    assert rep.num_components == 2
    assert rep.rank == 4
    assert rep.deficiency == 0
    assert not rep.is_paired
    assert all(c.deficiency == 0 for c in rep.components)


def test_deficiency_one_report():
    net = deficiency_one_network()
    rep = net.deficiency()
    assert (rep.num_complexes, rep.num_components, rep.rank, rep.deficiency) == (5, 2, 2, 1)
    # rank oracle on the reaction vectors (1,1), (-1,0), (0,-1), (2,-2)
    assert minor_rank([[1, -1, 0, 2], [1, 0, -1, -2]]) == 2
    # the first component has three vertices, so the network is not paired
    assert net.is_paired() == (False, 2)
    # both components are deficiency zero on their own; the drop happens
    # because their stoichiometric subspaces overlap
    assert [c.deficiency for c in rep.components] == [0, 0]
    assert sum(c.rank for c in rep.components) == 3 != rep.rank


def test_two_paired_report():
    net = two_paired_network()
    rep = net.deficiency()
    assert (rep.num_complexes, rep.num_components, rep.rank, rep.deficiency) == (4, 2, 2, 0)
    assert net.is_paired() == (True, 2)
    assert net.paired_def_zero() is True


def test_two_paired_stoich_rank_oracle():
    # reaction vectors (0, 2) and (1, 0): the 2x2 determinant is -2 != 0
    assert minor_rank([[0, 1], [2, 0]]) == 2
    assert two_paired_network().stoich_rank() == 2


def test_three_paired_example():
    net = three_paired_network()
    assert net.deficiency().deficiency == 0
    assert net.is_paired() == (True, 3)
    assert net.paired_def_zero() is True


def test_paired_dependent_vectors():
    # S1 <-> S2 and S1+S3 <-> S2+S3 share the reaction vector (-1, 1, 0)
    rx = reversible(Complex.unary(1), Complex.unary(2))
    rx += reversible(Complex((1, 3)), Complex((2, 3)))
    net = ReactionNetwork(3, frozenset(rx))
    assert net.is_paired() == (True, 2)
    assert net.paired_def_zero() is False
    assert net.deficiency().deficiency == 1


def test_paired_def_zero_single_reaction():
    net = ReactionNetwork(2, frozenset([Reaction(Complex.zero(), Complex.unary(1))]))
    assert net.is_paired() == (True, 1)
    assert net.paired_def_zero() is True


def test_paired_def_zero_rejects_unpaired():
    with pytest.raises(ValueError):
        deficiency_one_network().paired_def_zero()


def test_connected_components_counts():
    assert len(enzyme_network().connected_components()) == 2
    single = ReactionNetwork(2, frozenset([Reaction(Complex.unary(1), Complex.unary(2))]))
    assert len(single.connected_components()) == 1


def test_add_reaction_monotone_on_two_paired():
    net = two_paired_network()
    bigger = net.add_reaction(Reaction(Complex.unary(2), Complex.zero()))
    rep = bigger.deficiency()
    assert (rep.num_complexes, rep.num_components, rep.rank, rep.deficiency) == (4, 1, 2, 1)
    assert rep.deficiency >= net.deficiency().deficiency


def test_add_reaction_within_component_keeps_deficiency():
    net = enzyme_network()
    rep = net.deficiency()
    extra = Reaction(Complex((1, 2)), Complex((2, 4)))  # S+E -> P+E, same component
    assert extra not in net.reactions
    rep2 = net.add_reaction(extra).deficiency()
    assert rep2.deficiency == rep.deficiency
    assert rep2.rank == rep.rank


def test_add_reaction_to_empty():
    net = ReactionNetwork(1).add_reaction(Reaction(Complex.zero(), Complex.unary(1)))
    assert net.deficiency().deficiency == 0


def test_add_reaction_duplicate_rejected():
    net = two_paired_network()
    existing = next(iter(net.reactions))
    with pytest.raises(ValueError):
        net.add_reaction(existing)


def test_from_edge_list_chain_n1():
    # n=1: edges {0,1} and {1,2} give 0 <-> A <-> 2A
    net = ReactionNetwork.from_edge_list(1, [(0, 1), (1, 2)])
    assert net.vertices == frozenset({Complex.zero(), Complex.unary(1), Complex((1, 1))})
    assert len(net.reactions) == 4
    rep = net.deficiency()
    assert (rep.num_complexes, rep.num_components, rep.rank, rep.deficiency) == (3, 1, 1, 1)


def test_from_edge_list_two_paired():
    i2b = complex_to_index(2, Complex((2, 2)))
    ib = complex_to_index(2, Complex.unary(2))
    iab = complex_to_index(2, Complex((1, 2)))
    net = ReactionNetwork.from_edge_list(2, [(0, i2b), (ib, iab)])
    assert net == two_paired_network()


def test_from_edge_list_empty_and_errors():
    assert ReactionNetwork.from_edge_list(4, []) == ReactionNetwork(4)
    with pytest.raises(IndexError):
        ReactionNetwork.from_edge_list(1, [(0, 3)])
    with pytest.raises(ValueError):
        ReactionNetwork.from_edge_list(1, [(2, 2)])


def test_direction_invariance_on_goldens():
    for net in (enzyme_network(), deficiency_one_network(), two_paired_network()):
        assert net.reverse_all().deficiency() == net.deficiency()


def test_stoich_matrix_shape_and_reversible_columns():
    net = two_paired_network()
    m = net.stoich_matrix()
    assert m.rows == 2
    assert m.cols == len(net.reactions) == 4
    for col in m.columns:
        assert tuple(-x for x in col) in m.columns
        assert sum(abs(x) for x in col) <= 4
        assert all(-2 <= x <= 2 for x in col)


def test_report_invariants_on_goldens():
    for net in (enzyme_network(), deficiency_one_network(), two_paired_network(), three_paired_network()):
        rep = net.deficiency()
        assert rep.deficiency == rep.num_complexes - rep.num_components - rep.rank
        assert rep.deficiency >= 0
        assert sum(c.complex_count for c in rep.components) == rep.num_complexes
        if rep.num_complexes:
            assert 2 * rep.num_components <= rep.num_complexes
        for comp in rep.components:
            assert comp.deficiency == comp.complex_count - 1 - comp.rank >= 0


def _dense_reference(net):
    """(complexes, rank) of the whole network and of each component, from
    every dense reaction vector and components found by graph search."""
    adjacent = {}
    for r in net.reactions:
        adjacent.setdefault(r.source, set()).add(r.product)
        adjacent.setdefault(r.product, set()).add(r.source)
    comps, seen = [], set()
    for start in sorted(adjacent, key=Complex.sort_key):
        if start in seen:
            continue
        comp, todo = {start}, [start]
        while todo:
            for nxt in adjacent[todo.pop()] - comp:
                comp.add(nxt)
                todo.append(nxt)
        seen |= comp
        comps.append(comp)

    def rank(reactions):
        cols = [r.vector(net.n) for r in reactions]
        return bareiss_rank([list(row) for row in zip(*cols)]) if cols else 0

    per_comp = [
        (len(comp), rank([r for r in net.reactions if r.source in comp])) for comp in comps
    ]
    return (len(adjacent), len(comps), rank(net.reactions)), per_comp


def _random_crn(rng, n):
    """A .crn text over n species with complexes of up to three molecules,
    some reactions reversible and some not."""
    def complex_text():
        parts = [int(s) for s in rng.integers(1, n + 1, size=int(rng.integers(0, 4)))]
        return " + ".join(f"S{s}" for s in sorted(parts)) or "0"

    lines = [f"S{s} -> 0" for s in range(1, n + 1)] if rng.random() < 0.2 else []
    for _ in range(int(rng.integers(1, 2 * n + 3))):
        left, right = complex_text(), complex_text()
        if sorted(left.split(" + ")) != sorted(right.split(" + ")):
            lines.append(f"{left} {'<->' if rng.random() < 0.5 else '->'} {right}")
    return "\n".join(lines) or "S1 -> 0"


def test_deficiency_matches_dense_reference():
    rng = np.random.default_rng(5150)
    nets, ternary = [], 0
    for i in range(300):
        n = int(rng.integers(2, 13))
        p = float(rng.uniform(0.5, 3.0)) * n ** -3.0
        nets.append(sample_er_network(ErTrialConfig(n, p, derive_seed(5150, i))))
        doc = parse_network(_random_crn(rng, int(rng.integers(1, 7))))
        ternary += not doc.is_binary
        nets.append(to_reaction_network(doc))
    assert ternary > 100
    deficient = 0
    for net in nets:
        (complexes, components, rank), per_comp = _dense_reference(net)
        rep = net.deficiency()
        assert (rep.num_complexes, rep.num_components, rep.rank) == (complexes, components, rank)
        assert rep.deficiency == complexes - components - rank
        assert [(c.complex_count, c.rank) for c in rep.components] == per_comp
        assert all(c.deficiency == m - 1 - s for c, (m, s) in zip(rep.components, per_comp))
        deficient += rep.deficiency > 0
    assert 100 < deficient < 500
