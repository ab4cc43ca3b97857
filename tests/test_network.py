import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldnc.errors import InvalidNetworkError, NotLayeredError
from ldnc.gf_linalg import (
    FieldModulus,
    flip_matrix,
    identity,
    shift_matrix,
)
from ldnc.network import (
    detect_layers,
    network,
    reciprocal,
    reciprocal_layered,
    validate,
)

from helpers import random_layered_instance, two_unicast_network

GF2 = FieldModulus(2)


def single_edge_net(p=2, q=2, gain=None, width=2):
    fm = FieldModulus(p)
    g = gain if gain is not None else identity(fm, q)
    return network(p, q, ["a", "b"], [("a", "b", g)], [(1, "a", "b", width)])


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_accepts_single_edge():
    assert validate(single_edge_net()).ok


def test_validate_flags_gain_dimension():
    bad = network(
        2, 2, ["a", "b"], [("a", "b", identity(GF2, 3))], [(1, "a", "b", 1)]
    )
    report = validate(bad)
    assert [v.kind for v in report.violations] == ["gain-shape"]


def test_validate_flags_selfloop_session():
    bad = network(2, 1, ["a", "b"], [], [(1, "a", "a", 1)])
    report = validate(bad)
    assert [v.kind for v in report.violations] == ["session-endpoints"]


def test_validate_flags_duplicate_edges_unknown_nodes_and_moduli():
    g = identity(GF2, 1)
    bad = network(
        2,
        1,
        ["a", "b"],
        [("a", "b", g), ("a", "b", g), ("a", "c", identity(FieldModulus(3), 1))],
        [(1, "a", "b", 1), (3, "b", "a", 1)],
    )
    kinds = {v.kind for v in validate(bad).violations}
    assert kinds == {"duplicate-edge", "unknown-node", "gain-modulus", "session-id"}


@pytest.mark.parametrize(
    "nodes, q, edges, sessions, kind",
    [
        (["a", "a", "b"], 1, [("a", "b")], [(1, "a", "b", 1)], "duplicate-node"),
        (["a", "b"], 0, [], [(1, "a", "b", 1)], "vector-length"),
        (["a", "b"], 1, [("a", "b"), ("b", "b")], [(1, "a", "b", 1)], "self-loop"),
        (["a", "b"], 1, [("a", "b")], [(1, "a", "b", 1), (1, "a", "b", 1)], "session-id"),
        (["a", "b"], 1, [("a", "b")], [(1, "a", "b", -1)], "session-width"),
    ],
)
def test_validate_flags_each_violation_kind(nodes, q, edges, sessions, kind):
    g = identity(GF2, q)
    bad = network(2, q, nodes, [(u, v, g) for u, v in edges], sessions)
    assert [v.kind for v in validate(bad).violations] == [kind]
    with pytest.raises(InvalidNetworkError, match=kind):
        detect_layers(bad)


def test_session_lookup_by_id():
    n = two_unicast_network()
    assert n.session(2).id == 2
    with pytest.raises(KeyError, match="no session with id 9"):
        n.session(9)


# ---------------------------------------------------------------------------
# reciprocal
# ---------------------------------------------------------------------------


def test_reciprocal_is_involution():
    n = two_unicast_network()
    assert reciprocal(reciprocal(n)) == n


def test_reciprocal_of_two_unicast_instance():
    n = two_unicast_network()
    r = reciprocal(n)
    fwd = n.edge_map()
    rev = r.edge_map()
    assert set(rev) == {(dst, src) for (src, dst) in fwd}
    for (src, dst), gain in fwd.items():
        assert rev[(dst, src)] == gain.T
    by_id = {s.id: s for s in r.sessions}
    assert (by_id[1].source, by_id[1].destination) == ("5", "1")
    assert (by_id[2].source, by_id[2].destination) == ("6", "2")


def test_reciprocal_gain_matches_flip_conjugation():
    s = shift_matrix(GF2, 3, 2)
    n = network(2, 3, ["a", "b"], [("a", "b", s)], [(1, "a", "b", 1)])
    r = reciprocal(n)
    back_gain = r.edge_map()[("b", "a")]
    j = flip_matrix(GF2, 3)
    assert back_gain == s.T
    assert back_gain == j @ s @ j


def test_reciprocal_preserves_counts():
    n = two_unicast_network()
    r = reciprocal(n)
    assert len(r.nodes) == len(n.nodes)
    assert len(r.edges) == len(n.edges)
    assert len(r.sessions) == len(n.sessions)
    assert (r.field, r.q) == (n.field, n.q)


def test_reciprocal_rejects_invalid_network():
    bad = network(2, 1, ["a"], [], [(1, "a", "a", 1)])
    with pytest.raises(InvalidNetworkError):
        reciprocal(bad)


# ---------------------------------------------------------------------------
# detect_layers
# ---------------------------------------------------------------------------


def test_detect_layers_on_two_unicast_instance():
    ln = detect_layers(two_unicast_network())
    assert ln.horizon == 2
    assert {v: ln.layer_of(v) for v in ln.base.nodes} == {
        "1": 0, "2": 0, "3": 1, "4": 1, "5": 2, "6": 2,
    }


def test_detect_layers_rejects_skipping_edge():
    g = identity(GF2, 1)
    n = network(
        2,
        1,
        ["a", "b", "c"],
        [("a", "b", g), ("b", "c", g), ("a", "c", g)],
        [(1, "a", "c", 1)],
    )
    with pytest.raises(NotLayeredError):
        detect_layers(n)


def test_detect_layers_single_edge():
    ln = detect_layers(single_edge_net())
    assert ln.horizon == 1
    assert ln.layer_of("a") == 0 and ln.layer_of("b") == 1
    assert ln.relay_nodes() == []


def test_detect_layers_rejects_cycles_and_relaying_destinations():
    g = identity(GF2, 1)
    cyc = network(
        2, 1,
        ["a", "b", "c"],
        [("a", "b", g), ("b", "c", g), ("c", "b", g)],
        [(1, "a", "c", 1)],
    )
    with pytest.raises(NotLayeredError):
        detect_layers(cyc)
    relaying_dest = network(
        2, 1,
        ["a", "b", "c"],
        [("a", "b", g), ("b", "c", g)],
        [(1, "a", "b", 1)],
    )
    with pytest.raises(NotLayeredError):
        detect_layers(relaying_dest)


def test_detect_layers_rejects_source_that_is_also_destination():
    g = identity(GF2, 1)
    n = network(
        2, 1,
        ["a", "b"],
        [("a", "b", g), ("b", "a", g)],
        [(1, "a", "b", 1), (2, "b", "a", 1)],
    )
    with pytest.raises(NotLayeredError):
        detect_layers(n)


def test_detect_layers_handles_dangling_relays():
    # A relay that nobody listens to still gets a layer, and so does its
    # mirror image (a relay with no feed) in the reciprocal network.
    g = identity(GF2, 1)
    n = network(
        2, 1,
        ["s", "r", "d", "x"],
        [("s", "r", g), ("r", "d", g), ("s", "x", g)],
        [(1, "s", "d", 1)],
    )
    ln = detect_layers(n)
    assert ln.layer_of("x") == 1
    rln = detect_layers(reciprocal(n))
    assert {v: rln.layer_of(v) for v in n.nodes} == {
        v: ln.horizon - ln.layer_of(v) for v in n.nodes
    }


def test_detect_layers_reciprocal_flips_layer_map():
    n = two_unicast_network()
    ln = detect_layers(n)
    rln = detect_layers(reciprocal(n))
    assert rln.horizon == ln.horizon
    for v in n.nodes:
        assert rln.layer_of(v) == ln.horizon - ln.layer_of(v)
    # direct construction agrees with re-detection
    assert reciprocal_layered(ln) == rln


def test_detect_layers_component_anchored_only_by_destination():
    # Session 2's destination hangs off a component with no session source;
    # it must still be pinned to the final layer.
    g = identity(GF2, 1)
    n = network(
        2, 1,
        ["s1", "d1", "s2", "r", "d2"],
        [("s1", "d1", g), ("s1", "d2", g), ("s2", "r", g)],
        [(1, "s1", "d1", 1), (2, "s2", "d2", 1)],
    )
    ln = detect_layers(n)
    assert ln.layer_of("r") == 1
    rln = detect_layers(reciprocal(n))
    for v in n.nodes:
        assert rln.layer_of(v) == ln.horizon - ln.layer_of(v)


def test_detect_layers_rejects_sessionless_networks_and_early_destinations():
    g = identity(GF2, 1)
    with pytest.raises(NotLayeredError, match="at least one session"):
        detect_layers(network(2, 1, ["a", "b"], [("a", "b", g)], []))
    # session 1 ends at layer 1 while session 2 runs on to layer 2
    n = network(
        2, 1,
        ["a", "b", "c", "r", "d"],
        [("a", "b", g), ("c", "r", g), ("r", "d", g)],
        [(1, "a", "b", 1), (2, "c", "d", 1)],
    )
    with pytest.raises(NotLayeredError, match="session 1 destination"):
        detect_layers(n)


def test_detect_layers_rejects_unanchored_component():
    g = identity(GF2, 1)
    n = network(
        2, 1,
        ["s", "d", "x", "y"],
        [("s", "d", g), ("x", "y", g)],
        [(1, "s", "d", 1)],
    )
    with pytest.raises(NotLayeredError):
        detect_layers(n)


def test_message_length_uses_horizon():
    ln = detect_layers(two_unicast_network())
    s1 = ln.base.session(1)
    assert ln.message_length(s1) == s1.width * 2


def test_width_zero_sessions_are_legal():
    fm = FieldModulus(2)
    n = network(2, 1, ["a", "b"], [("a", "b", identity(fm, 1))], [(1, "a", "b", 0)])
    assert validate(n).ok
    ln = detect_layers(n)
    assert ln.message_length(n.session(1)) == 0


def test_cached_lookups_match_linear_scans():
    rng = random.Random(8)
    layered = [detect_layers(two_unicast_network())] + [
        random_layered_instance(rng, max_per_layer=3, horizon_choices=(1, 2, 3))
        for _ in range(20)
    ]
    for ln in layered:
        n = ln.base
        for v in n.nodes + ("absent",):
            assert n.in_edges(v) == [e for e in n.edges if e.dst == v]
            assert n.out_edges(v) == [e for e in n.edges if e.src == v]
            assert n.sessions_sourced_at(v) == tuple(
                s for s in sorted(n.sessions, key=lambda s: s.id) if s.source == v
            )
        for layer in range(ln.horizon + 2):
            assert ln.nodes_at(layer) == sorted(
                v for v in n.nodes if ln.layer_map[v] == layer
            )
        assert ln.relay_nodes() == sorted(
            v for v in n.nodes if 0 < ln.layer_map[v] < ln.horizon
        )


def test_cached_lookups_hand_out_fresh_lists():
    ln = detect_layers(two_unicast_network())
    ln.base.in_edges("3").clear()
    ln.base.out_edges("3").clear()
    ln.nodes_at(1).clear()
    ln.relay_nodes().clear()
    assert len(ln.base.in_edges("3")) == 2
    assert len(ln.base.out_edges("3")) == 2
    assert ln.nodes_at(1) == ["3", "4"]
    assert ln.relay_nodes() == ["3", "4"]


def test_require_valid_raises_the_report_of_validate_every_time():
    n = network(2, 2, ["a", "a"], [("a", "b", identity(GF2, 3))], [(1, "a", "a", -1)])
    want = validate(n)
    assert [v.kind for v in want.violations] == [
        "duplicate-node", "unknown-node", "gain-shape", "session-endpoints", "session-width",
    ]
    for _ in range(2):
        with pytest.raises(InvalidNetworkError) as info:
            reciprocal(n)
        assert info.value.report == want
        assert validate(n) == want


def chain_net(gains, p=3, q=2):
    """a0 -> a1 -> ..., one edge per given gain object, in order."""
    nodes = [f"a{i}" for i in range(len(gains) + 1)]
    edges = [(f"a{i}", f"a{i + 1}", g) for i, g in enumerate(gains)]
    return network(p, q, nodes, edges, [(1, "a0", nodes[-1], 1)])


def test_equality_checks_every_edge_whichever_side_shares_its_gains():
    fm = FieldModulus(3)
    g, h = shift_matrix(fm, 2, 1), identity(fm, 2)
    shared = chain_net([g] * 4)
    copies = chain_net([shift_matrix(fm, 2, 1) for _ in range(4)])
    assert shared == copies and copies == shared
    for i in range(4):
        # every other edge matches, so a memo keyed on one side's gain
        # object alone would take edge i as equal
        odd_copies = chain_net([h if j == i else shift_matrix(fm, 2, 1) for j in range(4)])
        odd_shared = chain_net([h if j == i else g for j in range(4)])
        for a, b in ((shared, odd_copies), (copies, odd_shared), (shared, odd_shared)):
            assert a != b and b != a
    moved = network(3, 2, shared.nodes, [("a0", "a1", g), ("a1", "a2", g), ("a2", "a3", g),
                                         ("a2", "a4", g)], [(1, "a0", "a4", 1)])
    assert shared != moved and moved != shared


@st.composite
def small_networks(draw):
    """Up to 7 nodes on up to 4 drawn layers; edges and session ends lean
    towards ones a layering allows, so that both outcomes are common."""
    layers = draw(st.lists(st.integers(0, 3), min_size=2, max_size=7))
    nodes = [f"v{i}" for i in range(len(layers))]
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    forward = [(a, b) for a, b in pairs if layers[int(b[1:])] == layers[int(a[1:])] + 1]
    edges = draw(st.lists(st.sampled_from(forward * 3 + pairs), max_size=9, unique=True))
    first = [v for v in nodes if layers[int(v[1:])] == min(layers)]
    last = [v for v in nodes if layers[int(v[1:])] == max(layers)]
    ends = st.tuples(st.sampled_from(first * 3 + nodes), st.sampled_from(last * 3 + nodes))
    sessions = draw(st.lists(ends.filter(lambda e: e[0] != e[1]), min_size=1, max_size=3))
    g = identity(GF2, 1)
    return network(
        2, 1, nodes, [(a, b, g) for a, b in edges],
        [(k + 1, s, d, 1) for k, (s, d) in enumerate(sessions)],
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(small_networks())
def test_layer_detection_is_symmetric_under_reciprocity(n):
    try:
        ln = detect_layers(n)
    except NotLayeredError:
        with pytest.raises(NotLayeredError):
            detect_layers(reciprocal(n))
        return
    assert reciprocal_layered(ln) == detect_layers(reciprocal(n))
