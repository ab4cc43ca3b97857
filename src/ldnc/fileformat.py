"""Human-writable text formats for networks, codes, and message files.

Grammar, once ``#`` comments (which end at any ``str.splitlines``
boundary) are removed; ``{x}`` repeats x, ``[x]`` makes it optional::

    network  := {section}       each section once at most, p and q before edges
    section  := "p" ":" INT | "q" ":" INT | "nodes" ":" {ID}
              | "edges" ":" {ID "->" ID "gain" gain}
              | "sessions" ":" {INT ":" ID "->" ID "width" INT}
    gain     := "shift" "g" "=" INT | matrix        0 <= g <= q, and q >= 1
    code     := "T" ":" INT {"C" INT ":" matrix | "D" INT ":" decoder | "F" ID ":" matrix}
    decoder  := matrix | "[" "]"                    0 x q, only for a width-0 session
    messages := {"W" INT ":" vector}
    matrix   := "[" vector {"," vector} "]"         rows of equal length
    vector   := "[" [INT {"," INT}] "]"             entries reduced exactly mod p
    INT      := [0-9]+
    ID       := [A-Za-z0-9_@.]+                     not a keyword

Any run of Unicode whitespace may separate two symbols, and none may
split an INT or an ID.  Each matrix or vector literal is one token whose
entries are read with one numpy call.  Identical matrix literals in one
file, and equal shift gains, parse to one shared matrix: the copies of
an unfolding's gain, which :func:`ldnc.network.reciprocal` keeps shared,
are read once.  A shift gain is built as a dense q x q matrix, so
``gf_linalg.dense_capacity`` refuses, with ``ParseError``, a file whose
distinct shift gains would take more than ``MAX_DENSE_BYTES`` before
they are built.  README "File formats" has examples.
Serialization is canonical: nodes sorted, edges sorted by endpoint pair,
sessions by id, and every gain that equals a shift matrix printed as
``shift g=<strength>``, so parse/print round trips are stable; the text
of a gain object that several edges share is worked out once.
"""

from __future__ import annotations

import re

import numpy as np

from .coding import LinearCode, _check_matrices, validate_code
from .errors import CodeBindingError, ParseError
from .gf_linalg import FieldModulus, GfMatrix, as_shift_strength, dense_capacity, shift_matrix
from .network import Edge, LayeredNetwork, Network, Session

_RESERVED = {
    "p", "q", "nodes", "edges", "sessions", "gain", "shift", "g", "width",
    "T", "C", "D", "F", "W",
}
_SECTION_KEYWORDS = {"p", "q", "nodes", "edges", "sessions"}

_COMMENT = re.compile(r"#[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]*")
# Group 1 is a token; a literal with brackets balanced two deep is one
# token.  Group 2 catches stray characters.
_TOKEN = re.compile(
    r"(->|[:=]|[A-Za-z0-9_@.]+|\[[^\[\]]*(?:\[[^\[\]]*\][^\[\]]*)*\])|(\S+)"
)
_ID = re.compile(r"[A-Za-z0-9_@.]+")
_ROW = r"\[(?:[0-9]+(?:,[0-9]+)*)?\]"
_VECTOR = re.compile(_ROW)
_MATRIX = re.compile(rf"\[{_ROW}(?:,{_ROW})*\]")
# Whitespace splits a digit run into two entries, which no literal allows.
_SPLIT_ENTRY = re.compile(r"[0-9]\s+[0-9]")
# An entry of 19 or more digits may not fit an int64.
_LONG_ENTRY = re.compile(r"[0-9]{19}")
_SEPARATORS = str.maketrans("[],", "   ")
_EMPTY = re.compile(r"\[\s*\]")


def _int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than sys.get_int_max_str_digits() converts
        raise ParseError(f"integer of {len(digits)} digits is too long") from None


class _Stream:
    def __init__(self, text: str):
        pairs = _TOKEN.findall(_COMMENT.sub("", text))
        stray = next((bad for _, bad in pairs if bad), None)
        if stray is not None:
            raise ParseError(f"unexpected characters {stray[:40]!r}")
        self.tokens = [tok for tok, _ in pairs]
        self.pos = 0
        # each distinct literal or shift gain, keyed by its text and p, is
        # built once and shared (GfMatrix is immutable)
        self.matrices: dict[tuple[str, int], GfMatrix] = {}

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, token: str) -> None:
        got = self.next()
        if got != token:
            raise ParseError(f"expected {token!r}, got {got[:40]!r}")

    def integer(self) -> int:
        tok = self.next()
        if not tok.isdigit():
            raise ParseError(f"expected an integer, got {tok[:40]!r}")
        return _int(tok)

    def node_id(self) -> str:
        tok = self.next()
        if tok in _RESERVED or not _ID.fullmatch(tok):
            raise ParseError(f"invalid node id {tok[:40]!r}")
        return tok

    def _literal(self, grammar: re.Pattern, p: int) -> tuple[str, np.ndarray]:
        """The next token as a whitespace-free literal and its entries mod p."""
        tok = self.next()
        flat = "".join(tok.split())
        if not grammar.fullmatch(flat) or _SPLIT_ENTRY.search(tok):
            raise ParseError(f"malformed matrix or vector {tok[:40]!r}")
        digits = flat.translate(_SEPARATORS).strip()
        if _LONG_ENTRY.search(digits):
            return flat, np.array([_int(d) % p for d in digits.split()], dtype=np.int64)
        return flat, np.fromstring(digits, dtype=np.int64, sep=" ") % p

    def matrix(self, field: FieldModulus, empty_cols: int | None = None) -> GfMatrix:
        """The next matrix literal; given ``empty_cols``, ``[]`` is 0 x empty_cols."""
        if empty_cols is not None and _EMPTY.fullmatch(self.peek() or ""):
            self.next()
            return GfMatrix(field, np.zeros((0, empty_cols), dtype=np.int64))
        key = self.peek(), field.p
        if key in self.matrices:
            self.next()
            return self.matrices[key]
        flat, entries = self._literal(_MATRIX, field.p)
        rows = flat[2:-2].split("],[")
        widths = {row.count(",") + 1 if row else 0 for row in rows}
        if len(widths) != 1:
            raise ParseError("matrix rows have unequal lengths")
        entries.shape = len(rows), widths.pop()  # in place: a view would keep a second array
        self.matrices[key] = GfMatrix(field, entries)
        return self.matrices[key]

    def vector(self, field: FieldModulus) -> np.ndarray:
        return self._literal(_VECTOR, field.p)[1]


# ---------------------------------------------------------------------------
# Networks
# ---------------------------------------------------------------------------


def parse_network(text: str) -> Network:
    ts = _Stream(text)
    p = q = None
    field: FieldModulus | None = None
    nodes: list[str] = []
    edges: list[Edge] = []
    sessions: list[Session] = []
    seen: set[str] = set()
    shift_entries = 0

    def gain_matrix(field: FieldModulus) -> GfMatrix:
        nonlocal shift_entries
        if ts.peek() != "shift":
            return ts.matrix(field)
        ts.next()
        ts.expect("g")
        ts.expect("=")
        strength = ts.integer()
        if q < 1 or not 0 <= strength <= q:
            raise ParseError(f"shift strength {strength} outside 0..{q}, or q < 1")
        key = f"shift g={strength}", field.p
        if key not in ts.matrices:
            shift_entries += q * q
            dense_capacity(shift_entries, f"shift gains of size {q}x{q} need", ParseError)
            ts.matrices[key] = shift_matrix(field, q, strength)
        return ts.matrices[key]

    while ts.peek() is not None:
        section = ts.next()
        if section not in _SECTION_KEYWORDS:
            raise ParseError(f"expected a section keyword, got {section[:40]!r}")
        if section in seen:
            raise ParseError(f"duplicate section {section!r}")
        seen.add(section)
        ts.expect(":")
        if section == "p":
            p = ts.integer()
            try:
                field = FieldModulus(p)
            except ValueError as exc:
                raise ParseError(str(exc)) from exc
        elif section == "q":
            q = ts.integer()
        elif section == "nodes":
            while ts.peek() is not None and ts.peek() not in _SECTION_KEYWORDS:
                nodes.append(ts.node_id())
        elif section == "edges":
            if field is None or q is None:
                raise ParseError("edges section requires p and q to come first")
            while ts.peek() is not None and ts.peek() not in _SECTION_KEYWORDS:
                src = ts.node_id()
                ts.expect("->")
                dst = ts.node_id()
                ts.expect("gain")
                edges.append(Edge(src, dst, gain_matrix(field)))
        elif section == "sessions":
            while ts.peek() is not None and ts.peek() not in _SECTION_KEYWORDS:
                sid = ts.integer()
                ts.expect(":")
                src = ts.node_id()
                ts.expect("->")
                dst = ts.node_id()
                ts.expect("width")
                sessions.append(Session(sid, src, dst, ts.integer()))
    if field is None or q is None:
        raise ParseError("network file must declare p and q")
    return Network(
        field=field,
        q=q,
        nodes=tuple(nodes),
        edges=tuple(edges),
        sessions=tuple(sessions),
    )


def _gain_literal(gain: GfMatrix) -> str:
    strength = as_shift_strength(gain)
    if strength is not None:
        return f"shift g={strength}"
    return matrix_literal(gain)


def matrix_literal(m: GfMatrix) -> str:
    return str(m.to_rows()).replace(" ", "")


def serialize_network(n: Network) -> str:
    # edges may share one gain object, as an unfolding's memory edges do
    gains = {id(e.gain): e.gain for e in n.edges}
    literals = {key: _gain_literal(gain) for key, gain in gains.items()}
    lines = [f"p: {n.field.p}", f"q: {n.q}"]
    lines.append("nodes: " + " ".join(sorted(n.nodes)))
    lines.append("edges:")
    for e in sorted(n.edges, key=lambda e: (e.src, e.dst)):
        lines.append(f"  {e.src} -> {e.dst} gain {literals[id(e.gain)]}")
    lines.append("sessions:")
    for s in n.sessions_sorted():
        lines.append(f"  {s.id}: {s.source} -> {s.destination} width {s.width}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Codes
# ---------------------------------------------------------------------------


def parse_code(text: str, ln: LayeredNetwork) -> LinearCode:
    ts = _Stream(text)
    ts.expect("T")
    ts.expect(":")
    horizon = ts.integer()
    if horizon != ln.horizon:
        raise CodeBindingError(
            f"code horizon {horizon} does not match the network horizon {ln.horizon}"
        )
    field = ln.base.field
    encoders: dict[int, GfMatrix] = {}
    decoders: dict[int, GfMatrix] = {}
    relays: dict[str, GfMatrix] = {}
    while ts.peek() is not None:
        kind = ts.next()
        if kind == "C" or kind == "D":
            key = ts.integer()
            ts.expect(":")
            mat = ts.matrix(field, ln.base.q if kind == "D" else None)
            target = encoders if kind == "C" else decoders
            if key in target:
                raise ParseError(f"duplicate {kind} record for session {key}")
            target[key] = mat
        elif kind == "F":
            node = ts.node_id()
            ts.expect(":")
            if node in relays:
                raise ParseError(f"duplicate F record for node {node!r}")
            relays[node] = ts.matrix(field)
        else:
            raise ParseError(f"expected C, D or F record, got {kind[:40]!r}")
    code = LinearCode(network=ln, encoders=encoders, decoders=decoders, relays=relays)
    validate_code(ln, code)
    return code


def serialize_code(code: LinearCode) -> str:
    lines = [f"T: {code.network.horizon}"]
    for sid in sorted(code.encoders):
        lines.append(f"C {sid}: {matrix_literal(code.encoders[sid])}")
    for sid in sorted(code.decoders):
        lines.append(f"D {sid}: {matrix_literal(code.decoders[sid])}")
    for node in sorted(code.relays):
        lines.append(f"F {node}: {matrix_literal(code.relays[node])}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------


def parse_messages(text: str, ln: LayeredNetwork) -> list[GfMatrix]:
    ts = _Stream(text)
    field = ln.base.field
    vectors: dict[int, GfMatrix] = {}
    while ts.peek() is not None:
        ts.expect("W")
        sid = ts.integer()
        ts.expect(":")
        if sid in vectors:
            raise ParseError(f"duplicate message for session {sid}")
        vectors[sid] = GfMatrix(field, ts.vector(field).reshape(-1, 1))
    sessions = ln.base.sessions_sorted()
    _check_matrices("message for session", vectors,
                    {s.id: (ln.message_length(s), 1) for s in sessions}, field, ParseError)
    return [vectors[s.id] for s in sessions]


def serialize_messages(ln: LayeredNetwork, messages) -> str:
    lines = []
    for s, m in zip(ln.base.sessions_sorted(), messages):
        flat = ",".join(str(m[i, 0]) for i in range(m.rows))
        lines.append(f"W {s.id}: [{flat}]")
    return "\n".join(lines) + "\n"
