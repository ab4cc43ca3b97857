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
entries are read with one numpy call.  A shift gain is built as a dense
q x q matrix, so a file whose shift gains would take more than
``MAX_DENSE_BYTES`` is rejected before they are built.  README "File
formats" has examples.  Serialization is canonical: nodes sorted, edges
sorted by endpoint pair, sessions by id, and every gain that equals a
shift matrix printed as ``shift g=<strength>``, so parse/print round
trips are stable.
"""

from __future__ import annotations

import re

import numpy as np

from .coding import LinearCode, validate_code
from .errors import CodeBindingError, ParseError
from .gf_linalg import MAX_DENSE_BYTES, FieldModulus, GfMatrix, as_shift_strength, shift_matrix
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
        if tok in _RESERVED or not re.fullmatch(r"[A-Za-z0-9_@.]+", tok):
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
        flat, entries = self._literal(_MATRIX, field.p)
        rows = flat[2:-2].split("],[")
        widths = {row.count(",") + 1 if row else 0 for row in rows}
        if len(widths) != 1:
            raise ParseError("matrix rows have unequal lengths")
        entries.shape = len(rows), widths.pop()  # in place: a view would keep a second array
        return GfMatrix(field, entries)

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
    shift_bytes = 0

    def gain_matrix(field: FieldModulus) -> GfMatrix:
        nonlocal shift_bytes
        if ts.peek() != "shift":
            return ts.matrix(field)
        ts.next()
        ts.expect("g")
        ts.expect("=")
        strength = ts.integer()
        if q < 1 or not 0 <= strength <= q:
            raise ParseError(f"shift strength {strength} outside 0..{q}, or q < 1")
        shift_bytes += 8 * q * q
        if shift_bytes > MAX_DENSE_BYTES:
            raise ParseError(f"shift gains of size {q}x{q} exceed {MAX_DENSE_BYTES} bytes")
        return shift_matrix(field, q, strength)

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
    return "[" + ",".join("[" + ",".join(map(str, row)) + "]" for row in m.to_rows()) + "]"


def serialize_network(n: Network) -> str:
    lines = [f"p: {n.field.p}", f"q: {n.q}"]
    lines.append("nodes: " + " ".join(sorted(n.nodes)))
    lines.append("edges:")
    for e in sorted(n.edges, key=lambda e: (e.src, e.dst)):
        lines.append(f"  {e.src} -> {e.dst} gain {_gain_literal(e.gain)}")
    lines.append("sessions:")
    for s in sorted(n.sessions, key=lambda s: s.id):
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
    vectors: dict[int, np.ndarray] = {}
    while ts.peek() is not None:
        ts.expect("W")
        sid = ts.integer()
        ts.expect(":")
        if sid in vectors:
            raise ParseError(f"duplicate message for session {sid}")
        vectors[sid] = ts.vector(field)
    sessions = ln.base.sessions_sorted()
    missing = [s.id for s in sessions if s.id not in vectors]
    if missing:
        raise ParseError(f"missing message vectors for sessions {missing}")
    extra = set(vectors) - {s.id for s in sessions}
    if extra:
        raise ParseError(f"message vectors for unknown sessions {sorted(extra)}")
    out = []
    for s in sessions:
        vec = vectors[s.id]
        want = ln.message_length(s)
        if len(vec) != want:
            raise ParseError(
                f"message for session {s.id} has {len(vec)} entries, expected {want}"
            )
        out.append(GfMatrix(field, vec.reshape(-1, 1)))
    return out


def serialize_messages(ln: LayeredNetwork, messages) -> str:
    lines = []
    for s, m in zip(ln.base.sessions_sorted(), messages):
        flat = ",".join(str(m[i, 0]) for i in range(m.rows))
        lines.append(f"W {s.id}: [{flat}]")
    return "\n".join(lines) + "\n"
