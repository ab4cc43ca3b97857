"""The literal-token parser against the token-by-token reference parser.

Both parsers must accept the same texts and build the same objects from
them.  The texts are the corpus and generated files, each mutated a few
times by a seeded random edit, plus hand-picked edge cases.
"""

import random

import pytest

from ldnc import corpus
from ldnc.errors import CodeBindingError, LdncError, ParseError
from ldnc.fileformat import (
    parse_code,
    parse_messages,
    parse_network,
    serialize_code,
    serialize_messages,
    serialize_network,
)
from ldnc.gf_linalg import FieldModulus, identity
from ldnc.layering import unfold
from ldnc.network import detect_layers, network

from helpers import (
    random_code,
    random_layered_instance,
    random_messages,
    reference_parse_code,
    reference_parse_messages,
    reference_parse_network,
    triangle_network,
)

# characters and snippets the edits insert: grammar symbols, digits,
# Unicode digits and whitespace, comment starts and line boundaries
ALPHABET = list("[],:=->#pqgTCDFW a0123456789\n\t") + ["\xa0", "\x85", "\u2028", "٣", "\xb2"]
SNIPPETS = [
    "# note\n", "#", "[[", "]]", "],[", ",", "[]", "[[]]", "->", "shift g=0", "shift g=1",
    "01", "99999999999999999999", str(2**64), "[[1 0]]", "[[1,0],]", "[[1],[0,1]]", "gain",
    "width 1", "q: 0", "p: 5",
]
# edits that often keep a text valid, so that built objects get compared
SPACES = [" ", "\n", "\t", "\xa0", "\u2028", "\r\n", "  # c ] [ ,\n", "# c\x85"]


def _mutate(text: str, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(8)
        if op == 0:
            text = text[:i] + text[i + 1:]
        elif op == 1:
            text = text[:i] + rng.choice(ALPHABET) + text[i:]
        elif op == 2:
            text = text[:i] + rng.choice(ALPHABET) + text[i + 1:]
        elif op == 3:
            text = text[:i] + rng.choice(SNIPPETS) + text[i:]
        elif op == 4:
            j = min(len(text), i + rng.randint(1, 8))
            text = text[:j] + text[i:j] + text[j:]
        elif op == 5:
            text = text[:i] + text[i + 1:i + 2] + text[i:i + 1] + text[i + 2:]
        elif op == 6:
            digits = [k for k, c in enumerate(text) if c in "0123456789"]
            k = rng.choice(digits)
            text = text[:k] + rng.choice("0123456789") + text[k + 1:]
        else:
            text = text[:i] + rng.choice(SPACES) + text[i:]
    return text


def _outcome(parse, *args):
    try:
        return "ok", parse(*args)
    except LdncError as exc:
        return "error", exc


def _network_fields(n):
    return n.field, n.q, n.nodes, n.edges, n.sessions


def _code_fields(c):
    return dict(c.encoders), dict(c.decoders), dict(c.relays)


def agree_on_network(text):
    got, ref = _outcome(parse_network, text), _outcome(reference_parse_network, text)
    assert got[0] == ref[0], (text, got, ref)
    if got[0] == "ok":
        assert _network_fields(got[1]) == _network_fields(ref[1]), text
    else:
        assert type(got[1]) is ParseError and type(ref[1]) is ParseError, (got, ref)
    return got[0] == "ok"


def agree_on_code(text, ln):
    got, ref = _outcome(parse_code, text, ln), _outcome(reference_parse_code, text, ln)
    assert got[0] == ref[0], (text, got, ref)
    if got[0] == "ok":
        assert _code_fields(got[1]) == _code_fields(ref[1]), text
    else:
        # a horizon mismatch is found before a malformed record; the
        # reference reads every bracket as a token, so it may find the
        # mismatch first where this parser finds an unbalanced literal
        assert isinstance(got[1], (ParseError, CodeBindingError)), got
        assert isinstance(ref[1], (ParseError, CodeBindingError)), ref
    return got[0] == "ok"


def agree_on_messages(text, ln):
    got, ref = _outcome(parse_messages, text, ln), _outcome(reference_parse_messages, text, ln)
    assert got[0] == ref[0], (text, got, ref)
    if got[0] == "ok":
        assert got[1] == ref[1], text
    else:
        assert type(got[1]) is ParseError and type(ref[1]) is ParseError, (got, ref)
    return got[0] == "ok"


def _base_files():
    """(kind, text, layered network or None) for the corpus and generated files."""
    files = []
    layered = {}
    for name in corpus.names():
        if name.endswith(".net"):
            files.append(("net", corpus.read(name), None))
            try:
                layered[name[:-4]] = detect_layers(parse_network(corpus.read(name)))
            except LdncError:
                pass
    for name in corpus.names():
        stem, kind = name.rsplit(".", 1)
        if kind in ("code", "msg"):
            files.append((kind, corpus.read(name), layered[stem]))
    rng = random.Random(7)
    for p_choices in ((2, 3), (7,), (2**31 - 1,)):
        for _ in range(3):
            # no width-0 session: its code does not round-trip (see
            # test_code_with_a_width_zero_session_round_trips)
            ln = random_layered_instance(
                rng, p_choices=p_choices, max_per_layer=3, width_choices=(1, 2)
            )
            files.append(("net", serialize_network(ln.base), None))
            files.append(("code", serialize_code(random_code(ln, rng)), ln))
            files.append(("msg", serialize_messages(ln, random_messages(ln, rng)), ln))
    files.append(("net", serialize_network(unfold(triangle_network(3, 2), 2).base), None))
    return files


@pytest.mark.parametrize("kind", ["net", "code", "msg"])
def test_mutated_files_parse_alike(kind):
    rng = random.Random(401)
    bases = [(text, ln) for k, text, ln in _base_files() if k == kind]
    accepted = total = 0
    for _ in range(1500):
        text, ln = rng.choice(bases)
        mutated = _mutate(text, rng)
        if kind == "net":
            accepted += agree_on_network(mutated)
        elif kind == "code":
            accepted += agree_on_code(mutated, ln)
        else:
            accepted += agree_on_messages(mutated, ln)
        total += 1
    # enough texts must stay valid for the built objects to be compared
    assert 0.15 * total < accepted < 0.85 * total, (accepted, total)


def test_generated_files_parse_alike():
    for kind, text, ln in _base_files():
        if kind == "net":
            assert agree_on_network(text)
        elif kind == "code":
            assert agree_on_code(text, ln)
        else:
            assert agree_on_messages(text, ln)


NET = "p: 3\nq: 2\nnodes: a b\nedges:\n  a -> b gain {gain}\nsessions:\n  1: a -> b width 1\n"


@pytest.mark.parametrize(
    "text, accepted",
    [
        (NET.format(gain="[[٣,0],[0,1]]"), False),  # Arabic-Indic digit three
        (NET.replace("q: 2", "q: ٣").format(gain="shift g=1"), False),
        (NET.format(gain="[[\xb2,0],[0,1]]"), False),  # superscript two
        (NET.replace(" ", "\xa0").format(gain="[[1,\xa00],[0,1]]"), True),  # NBSP separates
        (NET.replace("q: 2\n", "# no q here q: 2\n").format(gain="shift g=1"), True),
        (NET.replace("q: 2\n", "# no q here\u2028q: 2\n").format(gain="shift g=1"), True),
        (NET.replace("q: 2\n", "# no q here\x85q: 2\n").format(gain="shift g=1"), True),
        (NET.replace("q: 2\n", "# no q here\x1dq: 2\n").format(gain="shift g=1"), True),
        (NET.format(gain="[[1, 2],  # first row\n   [0, 1]]  # second row"), True),
        (NET.format(gain="[[1, 2],  # ] [ , in a comment\n   [0, 1]]"), True),
        (NET.format(gain="[[01,002],[0,1]]"), True),
        (NET.replace("q: 2", "q: 02").format(gain="shift g=01"), True),
        (NET.format(gain="[[]]"), True),  # a 1x0 gain parses; validate reports it
        (NET.format(gain="[[],[]]"), True),
        (NET.format(gain="[[],[1]]"), False),
        (NET.format(gain="[[1,0],[0,1],]"), False),  # trailing comma
        (NET.format(gain="[[1,0,],[0,1]]"), False),
        (NET.format(gain="[[1 0],[0 1]]"), False),  # whitespace is no comma
        (NET.format(gain="[[1,0],[0 1]]"), False),
        (NET.format(gain="[[1],[0,1]]"), False),  # ragged rows
        (NET.format(gain="[[1,0],[0]]"), False),
        (NET.format(gain="[1,0]"), False),  # a vector is no matrix
        (NET.format(gain="[[[1]]]"), False),
        (NET.format(gain="[[1,0],[0,1]"), False),
        (NET.format(gain="[[1,0],[0,1]]]"), False),
        (NET.format(gain="[[-1,0],[0,1]]"), False),
        (NET.format(gain="[[1.0,0],[0,1]]"), False),
        (NET.format(gain="[[1,0],[0,1]] ,"), False),
        (NET.format(gain="[[1,0] , [0,1]]"), True),
        (NET.format(gain="[ [ 1 , 0 ] ,\n[ 0 , 1 ] ]"), True),
        (NET.format(gain="shift g=0").replace("q: 2", "q: 0"), False),
        (NET.format(gain="shift g=3"), False),
        (NET.format(gain="shift g\xa0=\t2"), True),
        (NET.format(gain="shift g =2").replace("->", "- >"), False),
        (NET.format(gain="[[1,0],[0,1]]").replace("a -> b gain", "a->b gain"), True),
        (NET.format(gain=f"[[{2**64},0],[0,{10**19}]]"), True),
    ],
)
def test_edge_cases_parse_alike(text, accepted):
    assert agree_on_network(text) is accepted


def test_vector_edge_cases_parse_alike():
    ln = detect_layers(parse_network(corpus.read("twounicast.net")))
    for text, accepted in [
        ("W 1: [1,0]\nW 2: [0,1]\n", True),
        ("W 1: [1,\xa00] W 2: [01,1] # x\n", True),
        ("W 1: [1 0]\nW 2: [0,1]\n", False),
        ("W 1: [1,0,]\nW 2: [0,1]\n", False),
        ("W 1: [[1,0]]\nW 2: [0,1]\n", False),
        ("W 1: [1,٣]\nW 2: [0,1]\n", False),
        (f"W 1: [{2**64},{2**64 + 1}]\nW 2: [0,1]\n", True),
    ]:
        assert agree_on_messages(text, ln) is accepted, text


def test_empty_decoder_edge_cases_parse_alike():
    # [] is the 0 x q decoder of a width-0 session and nothing else
    ln = detect_layers(network(2, 2, ["a", "b"], [("a", "b", identity(FieldModulus(2), 2))],
                               [(1, "a", "b", 0)]))
    for text, accepted in [
        ("T: 1\nC 1: [[],[]]\nD 1: []\n", True),
        ("T: 1\nC 1: [[],[]]\nD 1: [ \xa0\n ]\n", True),
        ("T: 1\nC 1: [[],[]]\nD 1: [ # ] [\n]\n", True),
        ("T: 1\nC 1: [[],[]]\nD 1: [[]]\n", False),  # 1 x 0, not 0 x 2
        ("T: 1\nC 1: []\nD 1: []\n", False),  # an encoder has q rows
        ("T: 1\nC 1: [[],[]]\nD 1: [,]\n", False),
    ]:
        assert agree_on_code(text, ln) is accepted, text
    twounicast = detect_layers(parse_network(corpus.read("twounicast.net")))
    text = corpus.read("twounicast.code").replace("D 1: [[1,0],[0,1]]", "D 1: []")
    assert text != corpus.read("twounicast.code")
    assert agree_on_code(text, twounicast) is False
