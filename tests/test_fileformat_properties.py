"""Property tests for the text formats, with a fixed example sequence.

Printing and parsing again gives back the same network or code, and any
text at all either parses or raises the format's own domain error.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ldnc import corpus
from ldnc.errors import CodeBindingError, ParseError
from ldnc.fileformat import (
    matrix_literal,
    parse_code,
    parse_messages,
    parse_network,
    serialize_code,
    serialize_network,
)
from ldnc.gf_linalg import FieldModulus, GfMatrix, shift_matrix
from ldnc.network import detect_layers, network

from helpers import random_code, random_layered_instance, reference_parse_network

PROPERTY = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)
KEYWORDS = {"p", "q", "nodes", "edges", "sessions", "gain", "shift", "g", "width",
            "T", "C", "D", "F", "W"}
PRIMES = [2, 3, 5, 7, 2**31 - 1]


@st.composite
def networks(draw):
    p = draw(st.sampled_from(PRIMES))
    q = draw(st.integers(1, 4))
    field = FieldModulus(p)
    names = st.text("AZagpqTW09_@.", min_size=1, max_size=4).filter(lambda s: s not in KEYWORDS)
    nodes = draw(st.lists(names, min_size=1, max_size=5, unique=True))
    entries = st.lists(st.integers(0, p - 1), min_size=q * q, max_size=q * q)
    gains = st.one_of(
        st.integers(0, q).map(lambda g: shift_matrix(field, q, g)),
        entries.map(lambda e: GfMatrix.from_rows(field, [e[i * q:(i + 1) * q] for i in range(q)])),
    )
    pairs = draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)),
                          max_size=6, unique=True))
    edges = [(u, v, draw(gains)) for u, v in pairs]
    ids = draw(st.lists(st.integers(0, 10**20), max_size=3, unique=True))
    sessions = [
        (sid, draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes)), draw(st.integers(0, 3)))
        for sid in ids
    ]
    return network(p, q, nodes, edges, sessions)


@given(networks())
@PROPERTY
def test_network_round_trip(n):
    text = serialize_network(n)
    again = parse_network(text)
    assert again == n
    assert serialize_network(again) == text


@given(st.integers(0, 2**32), st.sampled_from([(2, 3), (5,), (2**31 - 1,)]))
@PROPERTY
def test_code_round_trip(seed, p_choices):
    rng = random.Random(seed)
    # no width-0 session: see test_code_with_a_width_zero_session_round_trips
    ln = random_layered_instance(rng, p_choices=p_choices, width_choices=(1, 2))
    code = random_code(ln, rng)
    text = serialize_code(code)
    again = parse_code(text, ln)
    assert (dict(again.encoders), dict(again.decoders), dict(again.relays)) == (
        dict(code.encoders), dict(code.decoders), dict(code.relays)
    )
    assert serialize_code(again) == text


def nested_join_literal(m):
    """The form ``matrix_literal`` printed with one join per row."""
    return "[" + ",".join("[" + ",".join(map(str, row)) + "]" for row in m.to_rows()) + "]"


@st.composite
def matrices(draw):
    p = draw(st.sampled_from(PRIMES))
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entries = draw(st.lists(st.integers(0, p - 1), min_size=rows * cols, max_size=rows * cols))
    return GfMatrix(FieldModulus(p), np.array(entries, dtype=np.int64).reshape(rows, cols))


@given(matrices())
@example(GfMatrix(FieldModulus(3), np.zeros((0, 4), dtype=np.int64)))
@example(GfMatrix(FieldModulus(3), np.zeros((4, 0), dtype=np.int64)))
@example(GfMatrix.from_rows(FieldModulus(2**31 - 1), [[2**31 - 2, 0], [1, 2**30]]))
@PROPERTY
def test_matrix_literal_matches_the_nested_join_form(m):
    assert matrix_literal(m) == nested_join_literal(m)


def test_code_with_a_width_zero_session_round_trips():
    # the 0 x q decoder prints as [], which a D record reads back as 0 x q
    ln = detect_layers(network(2, 1, ["a", "b"], [("a", "b", shift_matrix(FieldModulus(2), 1, 1))],
                               [(1, "a", "b", 0)]))
    code = random_code(ln, random.Random(0))
    assert parse_code(serialize_code(code), ln).decoders[1].shape == (0, 1)


# Grammar pieces, always joined by whitespace so that digits never merge
# into a q whose shift gains would be slow to build.
PIECES = [
    "p", "q", ":", "2", "3", "0", "1", "01", "99999999999999999999", "nodes", "a", "b",
    "edges", "->", "a->b", "gain", "shift", "g", "=", "g=1", "[[1,0],[0,1]]", "[[1]]",
    "[[]]", "[1,0]", "[", "]", ",", "[[1 0]]", "sessions", "width", "#", "٣", "$",
    "T", "C", "D", "F", "W", "T:", "2:",
]
SEPARATORS = [" ", "\n", "\t", "\xa0", " ", "\r\n", " # note\n"]
grammar_texts = st.lists(
    st.tuples(st.sampled_from(PIECES), st.sampled_from(SEPARATORS)), max_size=40
).map(lambda parts: "".join(piece + sep for piece, sep in parts))


@given(st.one_of(st.text(), grammar_texts))
@PROPERTY
def test_any_text_parses_or_raises_parse_error(text):
    try:
        got = parse_network(text)
    except ParseError:
        with pytest.raises(ParseError):
            reference_parse_network(text)
    else:
        assert got == reference_parse_network(text)


LN = detect_layers(parse_network(corpus.read("twounicast.net")))


@given(st.one_of(st.text(), grammar_texts))
@PROPERTY
def test_any_code_or_message_text_raises_only_domain_errors(text):
    for parse in (parse_code, parse_messages):
        try:
            parse(text, LN)
        except (ParseError, CodeBindingError):
            pass
