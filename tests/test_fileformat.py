import time

import pytest

from ldnc import corpus, fileformat
from ldnc.coding import is_solving
from ldnc.errors import CodeBindingError, ParseError
from ldnc.fileformat import (
    parse_code,
    parse_messages,
    parse_network,
    serialize_code,
    serialize_messages,
    serialize_network,
)
from ldnc.gf_linalg import shift_matrix
from ldnc.network import detect_layers

from helpers import butterfly_code, butterfly_network, two_unicast_code, two_unicast_network

NET_SAMPLE = """
# a tiny two-hop network
p: 3
q: 2
nodes: a b c
edges:
  a -> b gain shift g=1
  b -> c gain [[1, 2],
               [0, 1]]
sessions:
  1: a -> c width 1
"""


def test_parse_network_sample():
    n = parse_network(NET_SAMPLE)
    assert n.field.p == 3 and n.q == 2
    assert set(n.nodes) == {"a", "b", "c"}
    assert n.edge_map()[("a", "b")] == shift_matrix(n.field, 2, 1)
    assert n.edge_map()[("b", "c")].to_rows() == [[1, 2], [0, 1]]
    s = n.session(1)
    assert (s.source, s.destination, s.width) == ("a", "c", 1)


def test_parse_is_whitespace_insensitive():
    squashed = "p:3 q:2 nodes: a b c edges: a->b gain shift g=1 b->c gain [[1,2],[0,1]] sessions: 1: a->c width 1"
    assert parse_network(squashed) == parse_network(NET_SAMPLE)


def test_network_round_trip_for_all_corpus_files():
    for name in corpus.names():
        if not name.endswith(".net"):
            continue
        text = corpus.read(name)
        n = parse_network(text)
        assert serialize_network(n) == text
        assert parse_network(serialize_network(n)) == n


def test_corpus_files_match_reference_instances():
    assert parse_network(corpus.read("twounicast.net")) == two_unicast_network()
    assert parse_network(corpus.read("butterfly.net")) == butterfly_network()


def test_code_round_trip():
    for net_name, code_name, build_net, build_code in (
        ("twounicast.net", "twounicast.code", two_unicast_network, two_unicast_code),
        ("butterfly.net", "butterfly.code", butterfly_network, butterfly_code),
    ):
        ln = detect_layers(parse_network(corpus.read(net_name)))
        code = parse_code(corpus.read(code_name), ln)
        assert serialize_code(code) == corpus.read(code_name)
        reference = build_code(detect_layers(build_net()))
        assert dict(code.encoders) == dict(reference.encoders)
        assert dict(code.decoders) == dict(reference.decoders)
        assert dict(code.relays) == dict(reference.relays)
        assert is_solving(ln, code)


def test_messages_round_trip():
    ln = detect_layers(parse_network(corpus.read("twounicast.net")))
    msgs = parse_messages(corpus.read("twounicast.msg"), ln)
    assert [m.shape for m in msgs] == [(2, 1), (2, 1)]
    assert serialize_messages(ln, msgs) == corpus.read("twounicast.msg")


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_network("p: 2\nnodes: a b\n")  # q missing
    with pytest.raises(ParseError):
        parse_network("p: 4\nq: 1\nnodes: a\nedges:\nsessions:\n")  # composite p
    with pytest.raises(ParseError):
        parse_network(NET_SAMPLE + "\nnodes: z\n")  # duplicate section
    with pytest.raises(ParseError):
        parse_network(NET_SAMPLE.replace("shift g=1", "shift g=9"))
    with pytest.raises(ParseError):
        parse_network(NET_SAMPLE.replace("[[1, 2],", "[[1],"))  # ragged matrix
    with pytest.raises(ParseError):
        parse_network("p: 2 q: 1 nodes: a $ b edges: sessions:")


def test_code_horizon_mismatch_is_a_binding_error():
    ln = detect_layers(parse_network(corpus.read("twounicast.net")))
    with pytest.raises(CodeBindingError):
        parse_code("T: 3\n", ln)


def test_message_validation():
    ln = detect_layers(parse_network(corpus.read("twounicast.net")))
    with pytest.raises(ParseError):
        parse_messages("W 1: [1,0]\n", ln)  # session 2 missing
    with pytest.raises(ParseError):
        parse_messages("W 1: [1,0]\nW 2: [1]\n", ln)  # wrong length
    with pytest.raises(ParseError):
        parse_messages("W 1: [1,0]\nW 2: [0,1]\nW 9: [1,1]\n", ln)


def test_entries_are_reduced_mod_p():
    n = parse_network(NET_SAMPLE.replace("[[1, 2],", "[[4, 5],"))
    assert n.edge_map()[("b", "c")].to_rows() == [[1, 2], [0, 1]]


HUGE = [2**63, 2**64 + 1, 10**30 + 7, 3 * 2**100]


def test_huge_network_entries_are_reduced_exactly_mod_p():
    for p in (3, 2**31 - 1):
        text = NET_SAMPLE.replace("p: 3", f"p: {p}").replace(
            "[[1, 2],", f"[[{HUGE[0]}, {HUGE[1]}],"
        ).replace("[0, 1]]", f"[{HUGE[2]}, 000000000000000000000000{HUGE[3]}]]")
        gain = parse_network(text).edge_map()[("b", "c")]
        assert gain.to_rows() == [[HUGE[0] % p, HUGE[1] % p], [HUGE[2] % p, HUGE[3] % p]]


def test_huge_code_and_message_entries_are_reduced_exactly_mod_p():
    ln = detect_layers(parse_network(corpus.read("twounicast.net")))
    code_text = corpus.read("twounicast.code").replace(
        "C 1: [[1,0],[0,1]]", f"C 1: [[{2**63 + 1},0],[0,{2**70 + 1}]]"
    )
    assert dict(parse_code(code_text, ln).encoders) == dict(
        parse_code(corpus.read("twounicast.code"), ln).encoders
    )
    msgs = parse_messages(f"W 1: [{2**64}, {2**65 + 1}]\nW 2: [0,{10**40}]\n", ln)
    assert [m.to_rows() for m in msgs] == [[[0], [1]], [[0], [0]]]


def test_integer_too_long_for_int_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_network("p: " + "1" * 5000 + "\nq: 1\n")
    with pytest.raises(ParseError):
        parse_network(NET_SAMPLE.replace("[[1, 2],", "[[" + "1" * 5000 + ", 2],"))


def test_shift_gain_with_q_zero_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_network("p: 2\nq: 0\nnodes: a b\nedges:\n  a -> b gain shift g=0\n")


def test_oversized_shift_gain_is_rejected_before_allocating():
    text = "p: 2\nq: 100000\nnodes: a b\nedges:\n  a -> b gain shift g=1\nsessions:\n"
    start = time.perf_counter()
    with pytest.raises(ParseError):
        parse_network(text)
    assert time.perf_counter() - start < 1.0


def test_shift_gain_limit_counts_every_shift_gain(monkeypatch):
    # three 2x2 int64 shift gains take 96 bytes; a fourth goes over
    monkeypatch.setattr(fileformat, "MAX_DENSE_BYTES", 96)
    edges = "".join(f"  a -> b{i} gain shift g=1\n" for i in range(4))
    head = "p: 2\nq: 2\nnodes: a b0 b1 b2 b3\nedges:\n"
    assert len(parse_network(head + edges[: edges.index("  a -> b3")]).edges) == 3
    with pytest.raises(ParseError):
        parse_network(head + edges)
