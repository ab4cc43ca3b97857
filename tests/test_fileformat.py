import time

import pytest

from ldnc import corpus, fileformat, gf_linalg
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
from ldnc.layering import unfold
from ldnc.network import detect_layers, reciprocal

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
    ln = detect_layers(parse_network(corpus.read("twounicast.net")))
    for record in ("C 1: [[1],[0]]", "D 2: [[0,1]]", "F 3: [[1,0],[0,1]]"):
        with pytest.raises(ParseError, match=f"duplicate {record[0]} record"):
            parse_code(corpus.read("twounicast.code") + record + "\n", ln)


def distinct_gains(n):
    return {id(e.gain) for e in n.edges}


def count_calls(monkeypatch, owner, name):
    """A list that gains the arguments of every call to ``owner.name``."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_serialize_network_prints_each_shared_gain_once(monkeypatch):
    # an unfolding shares one memory gain across all memory edges and one
    # embedded gain across the copies of each channel edge
    un = unfold(parse_network(corpus.read("triangle.net")), 4).base
    calls = count_calls(monkeypatch, fileformat, "as_shift_strength")
    text = serialize_network(un)
    assert len(calls) == len(distinct_gains(un)) < len(un.edges)
    assert parse_network(text) == un


TRIANGLE_LITERALS = """
p: 3
q: 2
nodes: a b c
edges:
  a -> b gain [[1, 2], [0, 1]]
  a -> c gain [[2, 0], [1, 1]]
  b -> c gain [[1, 1], [1, 2]]
sessions:
  1: a -> c width 1
"""


@pytest.mark.parametrize("text", [corpus.read("triangle.net"), TRIANGLE_LITERALS],
                         ids=["triangle.net", "literal-triangle"])
def test_parsed_unfolding_shares_each_distinct_gain(text):
    # triangle.net's three channel gains are equal shifts, so its unfolding
    # holds four gain objects of two values; the literal triangle's four
    # gain objects all differ
    un = unfold(parse_network(text), 4).base
    again = parse_network(serialize_network(un))
    assert again == un
    assert len(distinct_gains(again)) == len(set(e.gain for e in un.edges))
    assert len(set(e.gain for e in un.edges)) <= len(distinct_gains(un)) == 4


def test_parse_code_reads_a_repeated_literal_once(monkeypatch):
    reads = count_calls(monkeypatch, fileformat._Stream, "_literal")
    ln = detect_layers(parse_network(corpus.read("twounicast.net")))
    code = parse_code(corpus.read("twounicast.code"), ln)
    # all six records of twounicast.code hold the same 2x2 identity
    assert len(reads) == 1
    matrices = [*code.encoders.values(), *code.decoders.values(), *code.relays.values()]
    assert len(matrices) == 6 and all(m is matrices[0] for m in matrices)
    assert serialize_code(code) == corpus.read("twounicast.code")


@pytest.mark.parametrize("literal, message", [
    ("[[1,2],[3]]", "unequal lengths"),
    ("[[1 2]]", "malformed"),
    ("[[1,2],[3,4],]", "malformed"),
])
def test_a_repeated_malformed_literal_raises_at_its_first_occurrence(monkeypatch, literal, message):
    reads = count_calls(monkeypatch, fileformat._Stream, "_literal")
    edges = "".join(f"  a -> {v} gain {literal}\n" for v in ("b", "c", "d"))
    with pytest.raises(ParseError, match=message):
        parse_network(f"p: 2\nq: 2\nnodes: a b c d\nedges:\n{edges}")
    assert len(reads) == 1


def test_reciprocal_of_an_unfolding_keeps_its_shared_gains(monkeypatch):
    un = unfold(parse_network(corpus.read("triangle.net")), 4).base
    rev = reciprocal(un)
    assert len(distinct_gains(rev)) == len(distinct_gains(un)) < len(un.edges)
    calls = count_calls(monkeypatch, fileformat, "as_shift_strength")
    text = serialize_network(rev)
    assert len(calls) == len(distinct_gains(rev))
    assert parse_network(text) == rev
    assert reciprocal(rev) == un


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
    monkeypatch.setattr(gf_linalg, "MAX_DENSE_BYTES", 96)
    edges = "".join(f"  a -> b{i} gain shift g=1\n" for i in range(4))
    head = "p: 2\nq: 2\nnodes: a b0 b1 b2 b3\nedges:\n"
    assert len(parse_network(head + edges[: edges.index("  a -> b3")]).edges) == 3
    with pytest.raises(ParseError):
        parse_network(head + edges)
