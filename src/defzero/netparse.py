"""Plain-text reaction network files (suggested extension: .crn).

One reaction per line:

    complex  ->  complex         a single directed reaction
    complex  <-> complex         both directions

A complex is `0` (the empty complex) or `+`-separated terms, each an
optional positive integer coefficient followed by a species name
(a letter, then letters/digits/underscores), e.g. `S1 + 2 P`.  Only spaces
and tabs separate tokens, and they may be left out (`2S1` is `2 S1`).  `#`
starts a comment, blank lines are skipped, and both LF and CRLF are
accepted.  Species get 1-based ids in order of first appearance; that order
defines the coordinate order of all vectors derived from the file.

Molecularity is not restricted by the parser; a binary-only check is
available on the parsed document.  Coefficients above 4096 are rejected as
a sanity bound.  Any input outside this grammar raises NetworkParseError,
whose message names the 1-based line and column of the fault.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .complexes import Complex
from .network import Reaction, ReactionNetwork

# Blanks are spaces and tabs; any other character that starts no token is
# an error.
_TOKEN_RE = re.compile(
    r"(?P<op><->|->|\+)|(?P<int>[0-9]+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<bad>[^ \t])"
)

_MAX_COEFFICIENT = 4096


class NetworkParseError(ValueError):
    """A syntax or semantic error, located by line and column (1-based)."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


@dataclass(frozen=True)
class NetworkDocument:
    """A parsed network file: named species plus directed reactions."""

    species_order: tuple[str, ...]
    reactions: tuple[Reaction, ...]

    @property
    def is_binary(self) -> bool:
        """Whether every complex has molecularity at most two."""
        return all(
            r.source.order <= 2 and r.product.order <= 2 for r in self.reactions
        )


def _parse_reaction(line: str, line_no: int, species: dict[str, int]) -> list[Reaction]:
    """The reactions on one line: one for `->`, two for `<->`.  New species
    names are added to species with the next id."""
    tokens = []  # (kind, text, column); an operator's kind is its own text
    for m in _TOKEN_RE.finditer(line):
        kind, text = m.lastgroup, m.group()
        if kind == "bad":
            raise NetworkParseError(
                f"unexpected character {text!r}", line_no, m.start() + 1
            )
        tokens.append((text if kind == "op" else kind, text, m.start() + 1))
    tokens.append(("end", "", len(line) + 1))
    pos = 0

    def fail(message: str, column: int | None = None):
        if column is None:
            column = tokens[pos][2]
        raise NetworkParseError(message, line_no, column)

    def parse_complex() -> Complex:
        nonlocal pos
        kind, text, col = tokens[pos]
        if kind == "end":
            fail("expected a complex")
        if kind == "int" and int(text) == 0:
            pos += 1
            if tokens[pos][0] in ("name", "+"):
                fail("coefficient 0 is not allowed", col)
            return Complex.zero()
        counts: dict[int, int] = {}
        while True:
            kind, text, col = tokens[pos]
            if kind not in ("int", "name"):
                fail("expected a species term")
            coeff = 1
            if kind == "int":
                coeff = int(text)
                if coeff == 0:
                    fail("coefficient 0 is not allowed", col)
                if coeff > _MAX_COEFFICIENT:
                    fail(
                        f"coefficient {coeff} exceeds the supported bound "
                        f"{_MAX_COEFFICIENT}",
                        col,
                    )
                pos += 1
                if tokens[pos][0] != "name":
                    fail("expected a species name after the coefficient")
            sid = species.setdefault(tokens[pos][1], len(species) + 1)
            counts[sid] = counts.get(sid, 0) + coeff
            pos += 1
            if tokens[pos][0] != "+":
                return Complex.from_counts(counts)
            pos += 1

    source = parse_complex()
    arrow, _, arrow_col = tokens[pos]
    if arrow not in ("->", "<->"):
        fail("expected '->' or '<->'")
    pos += 1
    product = parse_complex()
    if tokens[pos][0] != "end":
        fail(f"unexpected {tokens[pos][1]!r} after the reaction")
    if source == product:
        fail("source and product of a reaction must differ", arrow_col)
    if arrow == "<->":
        return [Reaction(source, product), Reaction(product, source)]
    return [Reaction(source, product)]


def parse_network(text: str) -> NetworkDocument:
    """Parse a network file into a document.

    Raises NetworkParseError (with 1-based line/column) on any input the
    grammar does not cover.
    """
    species: dict[str, int] = {}  # name -> id, in order of first appearance
    reactions: list[Reaction] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if line.strip():
            reactions.extend(_parse_reaction(line, line_no, species))
    return NetworkDocument(species_order=tuple(species), reactions=tuple(reactions))


def _complex_name_key(c: Complex, names: tuple[str, ...]) -> tuple:
    return (c.order, tuple(sorted(names[s - 1] for s in c.species)))


def _render_complex(c: Complex, names: tuple[str, ...]) -> str:
    if c.order == 0:
        return "0"
    terms = []
    for name, count in sorted((names[s - 1], n) for s, n in c.counts().items()):
        terms.append(name if count == 1 else f"{count} {name}")
    return " + ".join(terms)


def serialize_network(doc: NetworkDocument) -> str:
    """Canonical text for a document: reversible pairs collapsed to `<->`
    and oriented toward the smaller side, reactions sorted, LF endings; an
    empty document is the empty string.

    All ordering decisions compare species by name, never by id.  Ids are
    assigned by first appearance and therefore change when the canonical
    text is reparsed; names do not, which is what makes serialization
    idempotent after a single round trip.
    """
    names = doc.species_order
    unique = set(doc.reactions)

    def reaction_key(r: Reaction) -> tuple:
        return (_complex_name_key(r.source, names), _complex_name_key(r.product, names))

    lines = []
    emitted = set()
    for r in sorted(unique, key=reaction_key):
        if r in emitted:
            continue
        back = r.reverse()
        if back in unique:
            emitted.add(back)
            arrow = "<->"
        else:
            arrow = "->"
        lines.append(
            f"{_render_complex(r.source, names)} {arrow} {_render_complex(r.product, names)}"
        )
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


def to_reaction_network(doc: NetworkDocument) -> ReactionNetwork:
    """The reaction network over the document's species, ids by first
    appearance."""
    return ReactionNetwork(len(doc.species_order), frozenset(doc.reactions))


def document_from_network(net: ReactionNetwork) -> NetworkDocument:
    """A document for a network, with species names S1..Sn."""
    return NetworkDocument(
        species_order=tuple(f"S{i}" for i in range(1, net.n + 1)),
        reactions=tuple(net.sorted_reactions()),
    )
