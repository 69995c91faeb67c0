from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from defzero import (
    Complex,
    ErTrialConfig,
    NetworkParseError,
    document_from_network,
    parse_network,
    sample_er_network,
    serialize_network,
    to_reaction_network,
)
from support import report_fingerprint

DATA = Path(__file__).parent / "data"


def test_single_reaction_vectors():
    doc = parse_network("S1 + S2 -> 2 S2")
    assert doc.species_order == ("S1", "S2")
    assert len(doc.reactions) == 1
    r = doc.reactions[0]
    assert r.source.vector(2) == [1, 1]
    assert r.product.vector(2) == [0, 2]


def test_reversible_expands_to_two():
    doc = parse_network("0 <-> A")
    assert len(doc.reactions) == 2
    assert {r.source for r in doc.reactions} == {Complex.zero(), Complex.unary(1)}


def test_source_equals_product_is_semantic_error():
    with pytest.raises(NetworkParseError) as err:
        parse_network("S1 -> S1")
    assert err.value.line == 1


def test_coefficient_zero_rejected():
    with pytest.raises(NetworkParseError):
        parse_network("0 S1 -> S2")
    with pytest.raises(NetworkParseError):
        parse_network("S1 -> 0 S2")


def test_error_positions():
    with pytest.raises(NetworkParseError) as err:
        parse_network("A -> B\nC -> $\n")
    assert (err.value.line, err.value.column) == (2, 6)
    with pytest.raises(NetworkParseError) as err:
        parse_network("A -> ")
    assert err.value.line == 1
    with pytest.raises(NetworkParseError) as err:
        parse_network("A <- B")
    assert err.value.line == 1


@pytest.mark.parametrize("text, line, column, message", [
    ("A -> ", 1, 6, "expected a complex"),
    ("A <- B", 1, 3, "unexpected character '<'"),
    ("0 A -> B", 1, 1, "coefficient 0 is not allowed"),
    ("A <-> 2A\nB + 00 C -> D", 2, 5, "coefficient 0 is not allowed"),
    ("+ A -> B", 1, 1, "expected a species term"),
    ("2 -> A", 1, 3, "expected a species name after the coefficient"),
    ("4097 A -> B", 1, 1, "coefficient 4097 exceeds the supported bound 4096"),
    ("A B -> C", 1, 3, "expected '->' or '<->'"),
    ("A -> B C", 1, 8, "unexpected 'C' after the reaction"),
    ("A -> A", 1, 3, "source and product of a reaction must differ"),
])
def test_parse_error_messages_and_columns(text, line, column, message):
    with pytest.raises(NetworkParseError) as err:
        parse_network(text)
    assert (err.value.line, err.value.column, err.value.message) == (line, column, message)
    assert str(err.value) == f"line {line}, column {column}: {message}"


def test_comments_blanks_and_crlf():
    doc = parse_network("# header\r\n\r\nA -> B # inline\r\nB -> 0\r\n")
    assert len(doc.reactions) == 2
    assert doc.species_order == ("A", "B")


def test_coefficient_without_space():
    doc = parse_network("2S1 -> S1 + S1_b")
    assert doc.reactions[0].source == Complex((1, 1))
    assert doc.species_order == ("S1", "S1_b")


def test_huge_coefficient_rejected():
    with pytest.raises(NetworkParseError):
        parse_network("99999999 X -> Y")


def test_first_appearance_order_defines_ids():
    doc = parse_network("B -> A\nA -> C\n")
    assert doc.species_order == ("B", "A", "C")
    net = to_reaction_network(doc)
    assert net.n == 3


def test_molecularity_three_flows_through():
    doc = parse_network("3 X -> X + Y\nX + Y -> 3 X")
    assert not doc.is_binary
    rep = to_reaction_network(doc).deficiency()
    assert (rep.num_complexes, rep.num_components, rep.rank) == (2, 1, 1)
    assert rep.deficiency == 0


def test_is_binary_flag():
    assert parse_network("A + B -> 2 B").is_binary
    assert not parse_network("2 A + B -> B").is_binary


def test_serialize_empty_document():
    assert serialize_network(parse_network("")) == ""
    assert serialize_network(parse_network("# only a comment\n")) == ""


def test_serialize_collapses_reversible_pairs():
    text = (DATA / "enzyme_kinetics.crn").read_text()
    out = serialize_network(parse_network(text))
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all("<->" in line for line in lines)


def test_serialize_direction_and_sorting():
    out = serialize_network(parse_network("B -> A\n0 -> B\nA -> B\n"))
    # 0 -> B stays directed; the reversible pair collapses toward the
    # lexicographically smaller complex
    assert out == "0 -> B\nA <-> B\n"


def test_roundtrip_identity_on_goldens():
    for name in ("enzyme_kinetics.crn", "three_paired.crn", "deficiency_one.crn"):
        text = (DATA / name).read_text()
        doc = parse_network(text)
        once = serialize_network(doc)
        again = serialize_network(parse_network(once))
        assert once == again
        assert report_fingerprint(to_reaction_network(parse_network(once)).deficiency()) == report_fingerprint(to_reaction_network(doc).deficiency())


def test_golden_files_reports():
    enzyme = to_reaction_network(parse_network((DATA / "enzyme_kinetics.crn").read_text()))
    rep = enzyme.deficiency()
    assert (rep.num_complexes, rep.num_components, rep.rank, rep.deficiency) == (6, 2, 4, 0)

    paired = to_reaction_network(parse_network((DATA / "three_paired.crn").read_text()))
    assert paired.deficiency().deficiency == 0
    assert paired.is_paired() == (True, 3)

    cyc = to_reaction_network(parse_network((DATA / "deficiency_one.crn").read_text()))
    assert cyc.deficiency().deficiency == 1


def test_one_line_file():
    rep = to_reaction_network(parse_network("0 -> A")).deficiency()
    assert (rep.num_complexes, rep.num_components, rep.rank, rep.deficiency) == (2, 1, 1, 0)


def test_document_from_network_roundtrip():
    net = sample_er_network(ErTrialConfig(3, 0.3, 424242))
    doc = document_from_network(net)
    text = serialize_network(doc)
    back = to_reaction_network(parse_network(text))
    assert report_fingerprint(back.deficiency()) == report_fingerprint(net.deficiency())


@settings(max_examples=300)
@given(st.text(max_size=60))
def test_fuzz_never_crashes(text):
    try:
        parse_network(text)
    except NetworkParseError:
        pass


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(lambda uv: uv[0] != uv[1]),
        min_size=0,
        max_size=12,
    )
)
def test_serialize_parse_idempotent_on_random_networks(edges):
    from defzero import ReactionNetwork

    net = ReactionNetwork.from_edge_list(3, set(map(frozenset, edges)))
    doc = document_from_network(net)
    once = serialize_network(doc)
    doc2 = parse_network(once)
    assert serialize_network(parse_network(serialize_network(doc2))) == serialize_network(doc2)
    if net.reactions:
        assert report_fingerprint(to_reaction_network(doc2).deficiency()) == report_fingerprint(net.deficiency())
