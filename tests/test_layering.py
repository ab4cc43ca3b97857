import itertools
import random

import pytest

from ldnc.coding import LinearCode, simulate
from ldnc.errors import BlockFormError, CodeBindingError, SchemeShapeError
from ldnc.gf_linalg import (
    FieldModulus,
    GfMatrix,
    as_shift_strength,
    identity,
    random_matrix,
    shift_matrix,
    zeros,
)
from ldnc.layering import (
    UnlayeredLinearScheme,
    _message_columns,
    lift_code,
    message_block_width,
    project_code,
    simulate_unlayered,
    unfold,
    validate_scheme,
)
from ldnc.network import detect_layers, network, reciprocal, reciprocal_layered

from helpers import (
    all_message_columns,
    message_columns_reference,
    project_code_reference,
    random_code,
    random_scheme,
    schemes_equal,
    triangle_network,
    two_unicast_network,
)

GF2 = FieldModulus(2)
GF3 = FieldModulus(3)


def two_node_net(p=2, q=1):
    fm = FieldModulus(p)
    return network(
        p, q, ["a", "b"], [("a", "b", identity(fm, q))], [(1, "a", "b", 1)]
    )


# ---------------------------------------------------------------------------
# unfold
# ---------------------------------------------------------------------------


def test_unfold_rejects_a_horizon_below_one():
    for horizon in (0, -1):
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            unfold(two_node_net(), horizon)


def test_unfold_two_node_structure():
    n = two_node_net(q=2)
    un = unfold(n, 2)
    assert len(un.base.nodes) == 6
    em = un.base.edge_map()
    for v in ("a", "b"):
        assert ("%s@0" % v, "%s@1" % v) in em
        assert ("%s@1" % v, "%s@2" % v) in em
    assert ("a@0", "b@1") in em and ("a@1", "b@2") in em
    assert un.base.q == 4 * n.q
    assert em[("a@0", "a@1")].is_identity()
    s = un.base.session(1)
    assert (s.source, s.destination) == ("a@0", "b@2")


def test_unfold_single_node_no_edges():
    lone = network(2, 1, ["a"], [], [])
    un = unfold(lone, 1)
    assert len(un.base.nodes) == 2
    assert [(e.src, e.dst) for e in un.base.edges] == [("a@0", "a@1")]
    assert un.base.edges[0].gain.is_identity()


def test_unfold_sessionless_pair():
    lone = network(2, 1, ["a", "b"], [], [(1, "a", "b", 1)])
    un = unfold(lone, 1)
    assert len(un.base.nodes) == 4
    assert {(e.src, e.dst) for e in un.base.edges} == {
        ("a@0", "a@1"),
        ("b@0", "b@1"),
    }
    assert all(e.gain.is_identity() for e in un.base.edges)


def test_unfold_sizes_are_predictable():
    rng = random.Random(3)
    for _ in range(5):
        nv = rng.randint(2, 4)
        names = [f"v{i}" for i in range(nv)]
        pairs = [
            (a, b) for a, b in itertools.permutations(names, 2) if rng.random() < 0.5
        ]
        fm = FieldModulus(2)
        n = network(
            2,
            1,
            names,
            [(a, b, random_matrix(fm, 1, 1, rng)) for a, b in pairs],
            [(1, names[0], names[1], 1)],
        )
        for horizon in (1, 2, 3):
            un = unfold(n, horizon)
            assert len(un.base.nodes) == nv * (horizon + 1)
            assert len(un.base.edges) == nv * horizon + len(pairs) * horizon
            assert un.base.q == n.q * (horizon + 2)


def test_unfold_detects_as_layered():
    for net_builder, horizon in ((triangle_network, 2), (two_node_net, 3)):
        un = unfold(net_builder(), horizon)
        redetected = detect_layers(un.base)
        assert redetected.horizon == horizon
        assert dict(redetected.layer_map) == dict(un.layer_map)


def test_unfold_of_shift_network_has_shift_gains():
    n = network(
        2, 3, ["a", "b"], [("a", "b", shift_matrix(GF2, 3, 1))], [(1, "a", "b", 1)]
    )
    un = unfold(n, 1)
    chan = un.base.edge_map()[("a@0", "b@1")]
    assert as_shift_strength(chan) is not None


def test_unfold_commutes_with_reciprocal_up_to_band_placement():
    # Unfolding the reciprocal and reciprocating the unfolding give
    # isomorphic networks under v@m -> v@(T-m); memory edges stay identity
    # and each channel edge carries the transposed original gain as its
    # unique nonzero block (in the opposite corner of the embedding).
    rng = random.Random(9)
    fm = FieldModulus(3)
    n = network(
        3,
        2,
        ["a", "b", "c"],
        [
            ("a", "b", random_matrix(fm, 2, 2, rng)),
            ("b", "c", random_matrix(fm, 2, 2, rng)),
            ("c", "a", random_matrix(fm, 2, 2, rng)),
        ],
        [(1, "a", "b", 1)],
    )
    horizon = 2
    q = n.q
    ru = reciprocal(unfold(n, horizon).base)
    ur = unfold(reciprocal(n), horizon).base

    def relabel(name):
        v, m = name.rsplit("@", 1)
        return f"{v}@{horizon - int(m)}"

    ru_edges = {(relabel(e.src), relabel(e.dst)): e.gain for e in ru.edges}
    ur_edges = ur.edge_map()
    assert set(ru_edges) == set(ur_edges)
    big = q * (horizon + 2)
    for key, gain in ru_edges.items():
        other = ur_edges[key]
        if gain.is_identity():
            assert other.is_identity()
            continue
        # reciprocal-of-unfolded: block in the top-right corner
        a = gain.to_array()
        b = other.to_array()
        assert not a[:, :big - q].any() and not a[q:, :].any()
        assert not b[:big - q, :].any() and not b[:, q:].any()
        assert a[:q, big - q:].tolist() == b[big - q:, :q].tolist()
    ru_sessions = {
        (s.id, relabel(s.source), relabel(s.destination), s.width)
        for s in ru.sessions
    }
    ur_sessions = {
        (s.id, s.source, s.destination, s.width) for s in ur.sessions
    }
    assert ru_sessions == ur_sessions


# ---------------------------------------------------------------------------
# scheme validation and direct simulation
# ---------------------------------------------------------------------------


def test_validate_scheme_rejects_bad_shapes():
    n = two_node_net()
    bad = UnlayeredLinearScheme(
        horizon=2,
        node_encoders={("a", 0): zeros(GF2, 1, 5)},
        decoders={1: zeros(GF2, 2, 2)},
    )
    with pytest.raises(SchemeShapeError):
        validate_scheme(n, bad)


_DECODES = {1: zeros(GF2, 2, 2)}


@pytest.mark.parametrize(
    "horizon, encoders, decoders, text",
    [
        (0, {}, {1: zeros(GF2, 0, 0)}, "horizon must be >= 1, got 0"),
        (2, {("z", 0): zeros(GF2, 1, 0)}, _DECODES,
         "encoder ('z', 0) has no slot in the network"),
        (2, {("a", 2): zeros(GF2, 1, 4)}, _DECODES,
         "encoder ('a', 2) has no slot in the network"),
        (2, {("a", 1): zeros(GF2, 1, 2)}, _DECODES,
         "encoder ('a', 1) has shape (1, 2), expected (1, 3)"),
        (2, {("a", 0): zeros(GF3, 1, 2)}, _DECODES,
         "encoder ('a', 0) is over GF(3), expected GF(2)"),
        (2, {}, {}, "decoder 1 is missing"),
        (2, {}, {**_DECODES, 2: zeros(GF2, 2, 2)}, "decoder 2 has no slot in the network"),
        (2, {}, {1: zeros(GF2, 2, 3)}, "decoder 1 has shape (2, 3), expected (2, 2)"),
        (2, {}, {1: zeros(GF3, 2, 2)}, "decoder 1 is over GF(3), expected GF(2)"),
    ],
    ids=["horizon", "unknown-node", "late-instant", "encoder-shape", "encoder-field",
         "missing-decoder", "extra-decoder", "decoder-shape", "decoder-field"],
)
def test_validate_scheme_names_each_fault(horizon, encoders, decoders, text):
    scheme = UnlayeredLinearScheme(horizon=horizon, node_encoders=encoders, decoders=decoders)
    with pytest.raises(SchemeShapeError) as info:
        validate_scheme(two_node_net(), scheme)
    assert str(info.value) == text


def test_simulate_unlayered_rejects_wrong_message_count_and_shape():
    n = two_node_net()
    scheme = UnlayeredLinearScheme(horizon=2, node_encoders={}, decoders=_DECODES)
    with pytest.raises(SchemeShapeError, match="expected 1 message vectors, got 0"):
        simulate_unlayered(n, scheme, [])
    with pytest.raises(SchemeShapeError, match=r"has shape \(3, 1\), expected \(2, 1\)"):
        simulate_unlayered(n, scheme, [zeros(GF2, 3, 1)])


def test_simulate_unlayered_identity_relay_chain():
    # a sends its two message symbols over two instants; b decodes them.
    n = two_node_net()
    one = GfMatrix.from_rows(GF2, [[1, 0]])
    two = GfMatrix.from_rows(GF2, [[0, 1, 0]])
    scheme = UnlayeredLinearScheme(
        horizon=2,
        node_encoders={("a", 0): one, ("a", 1): two},
        decoders={1: identity(GF2, 2)},
    )
    msgs = all_message_columns(GF2, [2])
    outs = simulate_unlayered(n, scheme, msgs)
    assert outs[0] == msgs[0]


def test_simulate_unlayered_tolerates_cycles():
    fm = FieldModulus(2)
    g = identity(fm, 1)
    n = network(
        2, 1,
        ["a", "b"],
        [("a", "b", g), ("b", "a", g)],
        [(1, "a", "b", 1)],
    )
    rng = random.Random(21)
    scheme = random_scheme(n, 2, rng)
    msgs = all_message_columns(fm, [2])
    outs = simulate_unlayered(n, scheme, msgs)
    assert outs[0].shape == (2, 4)


# ---------------------------------------------------------------------------
# lift_code
# ---------------------------------------------------------------------------


def test_lift_repeater_copies_bottom_band_to_top():
    # b repeats whatever it just heard; the lifted relay must copy the
    # bottom band into the top band and restack the state.
    n = network(
        2, 1,
        ["a", "b", "c"],
        [("a", "b", identity(GF2, 1)), ("b", "c", identity(GF2, 1))],
        [(1, "a", "c", 1)],
    )
    horizon = 2
    repeat_newest = GfMatrix.from_rows(GF2, [[1]])  # x_b[1] = y_b[0]
    scheme = UnlayeredLinearScheme(
        horizon=horizon,
        node_encoders={
            ("a", 0): GfMatrix.from_rows(GF2, [[1, 0]]),
            ("a", 1): GfMatrix.from_rows(GF2, [[0, 1, 0]]),
            ("b", 1): repeat_newest,
        },
        decoders={1: GfMatrix.from_rows(GF2, [[0, 1], [0, 0]])},
    )
    lifted = lift_code(n, scheme)
    f = lifted.relays["b@1"].to_array()
    assert f[0].tolist() == [0, 0, 0, 1]      # top band reads the fresh receive
    assert f[1].tolist() == [0, 0, 0, 1]      # state slot 0 restacks it too
    assert f[2].tolist() == [0, 0, 1, 0]      # empty slot carried through
    assert not f[3].any()                     # reserved band stays zero


def test_lift_silent_scheme_has_zero_top_bands():
    # a speaks only at instant 0; every later stage transmits a zero top
    # band, so the projection holds no encoder beyond time 0.
    n = two_node_net()
    scheme = UnlayeredLinearScheme(
        horizon=2,
        node_encoders={("a", 0): GfMatrix.from_rows(GF2, [[1, 1]])},
        decoders={1: zeros(GF2, 2, 2)},
    )
    lifted = lift_code(n, scheme)
    back = project_code(lifted)
    assert set(back.node_encoders) == {("a", 0)}
    # the non-source relay copies never populate the top band either
    for layer in (1,):
        assert not lifted.relays[f"b@{layer}"].to_array()[0].any()


def test_lift_handles_a_node_sourcing_two_sessions():
    # both messages share source a; their pending contributions occupy the
    # same state slots as a sum, and projection still separates them
    fm = FieldModulus(2)
    g = lambda rng: random_matrix(fm, 2, 2, rng)
    rng = random.Random(404)
    n = network(
        2, 2,
        ["a", "b", "c"],
        [("a", "b", g(rng)), ("a", "c", g(rng)), ("b", "c", g(rng))],
        [(1, "a", "b", 1), (2, "a", "c", 1)],
    )
    msgs = all_message_columns(fm, [2, 2])
    for _ in range(20):
        scheme = random_scheme(n, 2, rng)
        lifted = lift_code(n, scheme)
        assert simulate(lifted.network, lifted, msgs) == simulate_unlayered(
            n, scheme, msgs
        )
        assert schemes_equal(n, project_code(lifted), scheme)


def test_lift_preserves_end_to_end_behavior_exhaustively():
    rng = random.Random(77)
    fm = FieldModulus(2)
    g = lambda: random_matrix(fm, 2, 2, rng)
    n = network(
        2, 2,
        ["a", "b", "c"],
        [("a", "b", g()), ("b", "c", g()), ("a", "c", g()), ("c", "a", g())],
        [(1, "a", "b", 1), (2, "c", "a", 1)],
    )
    horizon = 2
    msgs = all_message_columns(fm, [2, 2])
    for _ in range(30):
        scheme = random_scheme(n, horizon, rng)
        direct = simulate_unlayered(n, scheme, msgs)
        lifted = lift_code(n, scheme)
        layered = simulate(lifted.network, lifted, msgs)
        assert direct == layered


# ---------------------------------------------------------------------------
# project_code
# ---------------------------------------------------------------------------


def test_project_round_trips_the_repeater():
    n = network(
        2, 1,
        ["a", "b", "c"],
        [("a", "b", identity(GF2, 1)), ("b", "c", identity(GF2, 1))],
        [(1, "a", "c", 1)],
    )
    scheme = UnlayeredLinearScheme(
        horizon=2,
        node_encoders={
            ("a", 0): GfMatrix.from_rows(GF2, [[1, 0]]),
            ("a", 1): GfMatrix.from_rows(GF2, [[0, 1, 0]]),
            ("b", 1): GfMatrix.from_rows(GF2, [[1]]),
        },
        decoders={1: GfMatrix.from_rows(GF2, [[0, 1], [0, 0]])},
    )
    back = project_code(lift_code(n, scheme))
    assert schemes_equal(n, back, scheme)


def test_project_round_trips_random_schemes_exactly():
    rng = random.Random(101)
    fm = FieldModulus(2)
    n = network(
        2, 2,
        ["a", "b", "c"],
        [
            ("a", "b", random_matrix(fm, 2, 2, rng)),
            ("b", "c", random_matrix(fm, 2, 2, rng)),
        ],
        [(1, "a", "c", 1)],
    )
    for horizon in (1, 2):
        msgs = all_message_columns(fm, [horizon])
        for _ in range(20):
            scheme = random_scheme(n, horizon, rng)
            lifted = lift_code(n, scheme)
            back = project_code(lifted)
            assert schemes_equal(n, back, scheme)
            assert simulate_unlayered(n, back, msgs) == simulate(
                lifted.network, lifted, msgs
            )


BIG = FieldModulus(2**31 - 1)


def big_cycle(q, rng, field=BIG):
    """a -> b -> c -> a with random gains, by default over GF(2**31 - 1); a sends to c."""
    gains = [random_matrix(field, q, q, rng) for _ in range(3)]
    edges = [(u, v, g) for (u, v), g in zip((("a", "b"), ("b", "c"), ("c", "a")), gains)]
    return network(field.p, q, ["a", "b", "c"], edges, [(1, "a", "c", 1)])


@pytest.mark.parametrize("q", [3, 4])
def test_lift_and_project_stay_exact_at_the_largest_modulus(q):
    # every product sums q or more terms of up to (p-1)^2, past int64
    rng = random.Random(2031 + q)
    n = big_cycle(q, rng)
    horizon = 3
    msgs = [random_matrix(BIG, horizon, 2, rng)]
    for _ in range(3):
        scheme = random_scheme(n, horizon, rng)
        lifted = lift_code(n, scheme)
        assert simulate_unlayered(n, scheme, msgs) == simulate(lifted.network, lifted, msgs)
        assert schemes_equal(n, project_code(lifted), scheme)


@pytest.mark.parametrize("q", [3, 4])
def test_projection_of_a_block_form_code_keeps_its_behavior_at_the_largest_modulus(q):
    # a random code that leaves the reserved bottom band zero projects to
    # a time-indexed scheme that runs exactly like the code
    rng = random.Random(4031 + q)
    n = big_cycle(q, rng)
    horizon = 3
    un = unfold(n, horizon)
    msgs = [random_matrix(BIG, horizon, 2, rng)]
    for _ in range(3):
        code = block_form(random_code(un, rng))
        assert simulate_unlayered(n, project_code(code), msgs) == simulate(un, code, msgs)


def test_project_rejects_reserved_band_writes():
    n = two_node_net()
    scheme = UnlayeredLinearScheme(
        horizon=2,
        node_encoders={("a", 0): GfMatrix.from_rows(GF2, [[1, 0]])},
        decoders={1: zeros(GF2, 2, 2)},
    )
    lifted = lift_code(n, scheme)
    bad_encoders = dict(lifted.encoders)
    arr = bad_encoders[1].to_array().copy()
    arr[-1, 0] = 1  # write into the reserved bottom band
    bad_encoders[1] = GfMatrix(GF2, arr)
    bad = LinearCode(
        network=lifted.network,
        encoders=bad_encoders,
        decoders=lifted.decoders,
        relays=lifted.relays,
    )
    with pytest.raises(BlockFormError):
        project_code(bad)
    bad_relays = dict(lifted.relays)
    arr = bad_relays["b@1"].to_array().copy()
    arr[-1, 0] = 1
    bad_relays["b@1"] = GfMatrix(GF2, arr)
    bad = LinearCode(lifted.network, lifted.encoders, lifted.decoders, bad_relays)
    with pytest.raises(BlockFormError, match="relay 'b@1' writes into the reserved"):
        project_code(bad)


def test_project_requires_unfolded_provenance():
    from helpers import two_unicast_code, two_unicast_network

    ln = detect_layers(two_unicast_network())
    with pytest.raises(CodeBindingError):
        project_code(two_unicast_code(ln))


def test_project_rejects_decoder_reading_destination_messages():
    # two sessions a->b and b->a; b both decodes session 1 and sources
    # session 2, and the tampered decoder peeks at its own outgoing message
    # through the top band, which no time-indexed decoder can express
    fm = FieldModulus(2)
    n = network(
        2, 1,
        ["a", "b"],
        [("a", "b", identity(fm, 1)), ("b", "a", identity(fm, 1))],
        [(1, "a", "b", 1), (2, "b", "a", 1)],
    )
    one = GfMatrix.from_rows(fm, [[1]])
    scheme = UnlayeredLinearScheme(
        horizon=1,
        node_encoders={("a", 0): one, ("b", 0): one},
        decoders={1: one, 2: one},
    )
    lifted = lift_code(n, scheme)
    decoders = dict(lifted.decoders)
    arr = decoders[1].to_array().copy()
    arr[0, 0] = 1  # read the top band of b's enlarged receive vector
    decoders[1] = GfMatrix(fm, arr)
    bad = LinearCode(
        network=lifted.network,
        encoders=lifted.encoders,
        decoders=decoders,
        relays=lifted.relays,
    )
    with pytest.raises(BlockFormError):
        project_code(bad)


def test_unfold_shares_one_embedded_gain_per_channel_edge():
    from ldnc.gf_linalg import block_embed

    n = triangle_network(3, 2)
    horizon = 3
    copies = {}
    for e in unfold(n, horizon).base.edges:
        src, dst = e.src.split("@")[0], e.dst.split("@")[0]
        if src != dst:
            copies.setdefault((src, dst), []).append(e.gain)
    assert set(copies) == set(n.edge_map())
    for pair, gains in copies.items():
        assert len(gains) == horizon
        assert all(g is gains[0] for g in gains)
        assert gains[0] == block_embed(n.edge_map()[pair], n.q, horizon)


def test_unfold_serialization_is_frozen():
    # digest of the unfoldings as serialized before the embedded gains were
    # shared between layers
    import hashlib

    from ldnc import corpus
    from ldnc.fileformat import parse_network, serialize_network

    from helpers import three_node_unfolding_family

    h = hashlib.sha256()
    for n, horizon in list(three_node_unfolding_family())[::7]:
        h.update(serialize_network(unfold(n, horizon).base).encode())
    for horizon in (1, 2, 3):
        h.update(serialize_network(unfold(triangle_network(3, 2), horizon).base).encode())
        h.update(serialize_network(unfold(parse_network(corpus.read("triangle.net")), horizon).base).encode())
    assert h.hexdigest() == "7aab6dae3a94a059d93700730f7100b6ed262e249ab1feb5280984dcdc189fd7"


def test_lift_and_project_output_is_frozen():
    # digest of lifted codes and projected schemes as built before the band
    # bookkeeping was rewritten; the rewrite must keep them byte-identical
    import hashlib

    from ldnc.fileformat import matrix_literal, serialize_code

    from helpers import three_node_unfolding_family

    cases = list(three_node_unfolding_family())[::3]
    cases += [
        (triangle_network(p, q), horizon)
        for p in (2, 3) for q in (1, 2, 3) for horizon in (1, 2, 3, 4)
    ]
    rng = random.Random(7207)
    h = hashlib.sha256()
    for n, horizon in cases:
        for density in (1.0, 0.5):
            lifted = lift_code(n, random_scheme(n, horizon, rng, density))
            h.update(serialize_code(lifted).encode())
            back = project_code(lifted)
            for key, m in sorted(back.node_encoders.items()):
                h.update(f"E {key} {matrix_literal(m)}\n".encode())
            for sid, m in sorted(back.decoders.items()):
                h.update(f"D {sid} {matrix_literal(m)}\n".encode())
    assert len(cases) == 131
    assert h.hexdigest() == "4162e4fdc54dfe5b550b5b7fcd158321f650f89fcb66130464db132a9dad194f"


def test_unfold_refuses_gains_over_the_dense_limit_before_allocating():
    import time

    from ldnc.gf_linalg import MAX_DENSE_BYTES

    n = triangle_network(2, 2)
    # (|E| + 1) gains of q(T+2) squared int64 entries each
    horizon = 1
    while (len(n.edges) + 1) * (n.q * (horizon + 2)) ** 2 * 8 <= MAX_DENSE_BYTES:
        horizon += 1
    start = time.perf_counter()
    for t in (horizon, 10**6, 10**12):
        with pytest.raises(ValueError, match="bytes"):
            unfold(n, t)
    assert time.perf_counter() - start < 1.0


def test_unfold_refuses_too_many_nodes_and_edges_before_allocating():
    import time
    import tracemalloc

    # 1,000 edgeless nodes at T = 300: 601,000 nodes and edges, each with a
    # 302-row int64 transmission, 1.45 GB; this used to build a 202 MB network
    n = network(2, 1, [f"n{i}" for i in range(1000)], [], [(1, "n0", "n1", 1)])
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="601000 nodes and edges"):
            unfold(n, 300)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 1 << 20


def test_unfold_object_limit_is_exact(monkeypatch):
    from ldnc import gf_linalg

    n = triangle_network(2, 1)
    horizon = 3
    # |V|(T+1) nodes and (|V| + |E|)T edges of q(T+2) int64 rows each
    need = (3 * (horizon + 1) + 6 * horizon) * (horizon + 2) * 8
    monkeypatch.setattr(gf_linalg, "MAX_DENSE_BYTES", need)
    assert len(unfold(n, horizon).base.nodes) == 12
    monkeypatch.setattr(gf_linalg, "MAX_DENSE_BYTES", need - 1)
    with pytest.raises(ValueError, match=f"need {need} bytes, more than {need - 1}"):
        unfold(n, horizon)


def test_equal_unfoldings_compare_each_shared_gain_once(monkeypatch):
    # two equal but distinct originals, so that neither unfolding is the other
    n = triangle_network(3, 2)
    a, b = unfold(n, 4), unfold(triangle_network(3, 2), 4)
    assert a is not b
    calls = []
    compare = GfMatrix.__eq__

    def counted(self, other):
        calls.append((self, other))
        return compare(self, other)

    monkeypatch.setattr(GfMatrix, "__eq__", counted)
    assert a == b and a.base == b.base
    # one memory gain and one embedded gain per channel edge, per comparison
    assert len(calls) == 2 * (len(n.edges) + 1)
    assert a != unfold(n, 3)
    assert unfold(triangle_network(3, 1), 4) != a


def test_one_unfolding_item_validates_each_network_once(monkeypatch):
    import sys
    from collections import Counter

    # the package exports the function ``network`` under the module's name
    network_module = sys.modules["ldnc.network"]
    validated = Counter()
    check = network_module.validate

    def counted(n):
        validated[id(n)] += 1
        return check(n)

    monkeypatch.setattr(network_module, "validate", counted)
    n = triangle_network(3, 2)
    rng = random.Random(1101)
    scheme = random_scheme(n, 3, rng)
    messages = [random_matrix(n.field, 3, 4, rng)]
    un = unfold(n, 3)
    lifted = lift_code(n, scheme)
    assert simulate(un, lifted, messages) == simulate_unlayered(n, scheme, messages)
    assert schemes_equal(n, project_code(lifted), scheme)
    assert validated[id(n)] == 1
    assert set(validated.values()) == {1}


def sparse_cycle_net(p, q):
    """s only sends; a -> b -> c -> a is a cycle; z hears nothing.

    Session 2 has width 0 and ends at z, which has no in-edges.
    """
    fm = FieldModulus(p)
    rng = random.Random(p * 10 + q)
    edges = [(u, v, random_matrix(fm, q, q, rng))
             for u, v in [("s", "a"), ("a", "b"), ("b", "c"), ("c", "a"), ("s", "c")]]
    return network(p, q, ["s", "a", "b", "c", "z"], edges,
                   [(1, "s", "b", 1), (2, "a", "z", 0), (3, "c", "s", 1)])


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
def test_simulate_unlayered_on_silent_instants_and_empty_sessions(p):
    # b's only in-neighbour a is silent at even instants and c at the
    # last one; s and z have no in-edges; session 2 carries no symbols
    for q, horizon in [(1, 1), (1, 3), (2, 2), (2, 4)]:
        n = sparse_cycle_net(p, q)
        rng = random.Random(p + 7 * q + horizon)
        scheme = random_scheme(n, horizon, rng)
        silent = {("a", m) for m in range(0, horizon, 2)} | {("c", horizon - 1)}
        scheme = UnlayeredLinearScheme(
            horizon=horizon,
            node_encoders={k: e for k, e in scheme.node_encoders.items() if k not in silent},
            decoders=scheme.decoders,
        )
        messages = [random_matrix(n.field, s.width * horizon, 5, rng)
                    for s in n.sessions_sorted()]
        direct = simulate_unlayered(n, scheme, messages)
        assert direct == simulate(unfold(n, horizon), lift_code(n, scheme), messages)
        assert [m.shape for m in direct] == [(horizon, 5), (0, 5), (horizon, 5)]


def test_lift_code_refuses_relays_over_the_dense_limit_before_allocating():
    import tracemalloc

    from ldnc.gf_linalg import MAX_DENSE_BYTES

    p, q, horizon = 2, 64, 2
    fm = FieldModulus(p)
    nodes = [f"v{i}" for i in range(600)]
    n = network(p, q, nodes, [("v0", "v1", identity(fm, q))], [(1, "v0", "v1", 1)])
    # two gains of q(T+2) squared int64 entries fit; |V|(T-1) = 600 relays do not
    assert unfold(n, horizon).base.q == q * (horizon + 2)
    scheme = UnlayeredLinearScheme(
        horizon=horizon, node_encoders={}, decoders={1: zeros(fm, horizon, q * horizon)}
    )
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="relays of size 256x256, which need"):
            lift_code(n, scheme)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < MAX_DENSE_BYTES // 64


# ---------------------------------------------------------------------------
# Live unfoldings are reused, never kept alive
# ---------------------------------------------------------------------------


def test_lift_code_binds_to_the_callers_unfolding(monkeypatch):
    from ldnc.network import Network

    n = triangle_network(3, 2)
    rng = random.Random(1401)
    scheme = random_scheme(n, 3, rng)
    messages = [random_matrix(n.field, 3, 4, rng)]
    un = unfold(n, 3)
    assert unfold(n, 3) is un
    assert unfold(n, 2) is not un
    # only an input that an earlier build accepted can hit
    with pytest.raises(TypeError):
        unfold(n, 3.0)
    lifted = lift_code(n, scheme)
    assert lifted.network is un
    # the code is bound to the caller's object, so no structural comparison runs
    compared = []
    monkeypatch.setattr(Network, "__eq__", lambda a, b: compared.append(a) or a is b)
    assert simulate(un, lifted, messages) == simulate_unlayered(n, scheme, messages)
    assert compared == []
    monkeypatch.undo()
    # an equal but distinct original gets an unfolding of its own
    twin = triangle_network(3, 2)
    assert unfold(twin, 3) is not un
    assert unfold(twin, 3) == un


def test_an_unfolding_lives_only_while_its_caller_holds_it():
    import gc
    import weakref

    from ldnc.network import _DERIVED

    n = triangle_network(3, 2)
    scheme = random_scheme(n, 2, random.Random(1402))
    un = unfold(n, 2)
    lifted = lift_code(n, scheme)
    project_code(lifted)
    dead = weakref.ref(un)
    del un, lifted
    gc.collect()
    assert dead() is None
    assert (id(n), 2) not in _DERIVED
    # the original lives while its unfolding does, and both die once dropped
    un = unfold(n, 3)
    key = (id(n), 3)
    dead = weakref.ref(n)
    del n
    gc.collect()
    assert un.original is dead()
    del un
    gc.collect()
    assert dead() is None
    assert key not in _DERIVED


def test_unfold_never_returns_the_unfolding_of_a_dead_original():
    # originals of changing shapes are dropped, each time after its unfolding;
    # ids freed that way are reused, and every answer must still be the
    # unfolding of the network asked for
    rng = random.Random(1403)
    kept = []
    for i in range(60):
        p, q, horizon = (2, 1, 2) if i % 3 else (3, 2, 3)
        n = network(
            p, q, [f"v{j}" for j in range(2 + i % 4)],
            [(f"v{j}", f"v{j + 1}", random_matrix(FieldModulus(p), q, q, rng))
             for j in range(1 + i % 4)],
            [(1, "v0", f"v{1 + i % 4}", 1)],
        )
        twin = network(p, q, n.nodes, [(e.src, e.dst, e.gain) for e in n.edges], n.sessions)
        un = unfold(n, horizon)
        assert un.original is n
        assert un == unfold(twin, horizon)
        if i % 2:
            kept.append(un)
        del n, twin, un
    # a kept unfolding keeps its original, and is still the answer for it
    assert all(unfold(k.original, k.horizon) is k for k in kept)


def test_an_unfolded_or_reciprocated_network_still_pickles_and_copies():
    import copy
    import pickle

    n = triangle_network(3, 2)
    un = unfold(n, 2)
    ln = detect_layers(two_unicast_network())
    rln = reciprocal_layered(ln)
    for x in (n, un, ln, rln):
        assert pickle.loads(pickle.dumps(x)) == x
    # an unpickled object or a copy is a source of its own: each answer for
    # it equals a fresh build
    fresh_un = unfold(triangle_network(3, 2), 2)
    for clone in (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy):
        n2, un2, ln2, rln2 = map(clone, (n, un, ln, rln))
        assert unfold(n2, 2) == fresh_un
        assert unfold(n2, 2).original is n2
        assert unfold(un2.original, 2) == fresh_un
        assert reciprocal_layered(un2) == detect_layers(reciprocal(un.base))
        assert reciprocal_layered(ln2) == detect_layers(reciprocal(ln.base))
        assert reciprocal_layered(rln2) == detect_layers(reciprocal(rln.base))


def block_form(code):
    """``code`` with the reserved bottom band of every encoder and relay zeroed."""
    un = code.network
    bottom = slice(un.original.q * (un.horizon + 1), None)
    blocked = {}
    for name, mats in (("encoders", code.encoders), ("relays", code.relays)):
        blocked[name] = {}
        for key, m in mats.items():
            arr = m.to_array().copy()
            arr[bottom] = 0
            blocked[name][key] = GfMatrix(m.field, arr)
    return LinearCode(network=un, decoders=code.decoders, **blocked)


def projection_outcome(project, code):
    """The scheme ``project`` returns for ``code``, or its BlockFormError's text."""
    try:
        return project(code)
    except BlockFormError as exc:
        return str(exc)


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
def test_projection_matches_the_hstack_reference(p):
    # block-form random codes and lifted random schemes on three cyclic
    # networks; the reference hstacks the fresh band at every receive
    fm = FieldModulus(p)
    rng = random.Random(p % 1000 + 28)
    nets = [triangle_network(p, 2), big_cycle(2, rng, fm), sparse_cycle_net(p, 2)]
    kinds = set()
    for n, horizon in itertools.product(nets, range(1, 5)):
        un = unfold(n, horizon)
        codes = [block_form(random_code(un, rng)) for _ in range(3)]
        codes += [lift_code(n, random_scheme(n, horizon, rng, density=0.7)) for _ in range(3)]
        for code in codes:
            got = projection_outcome(project_code, code)
            assert got == projection_outcome(project_code_reference, code)
            kinds.add(type(got))
    # sparse_cycle_net's session 3 ends at s, which sources session 1, so
    # random decoders there read destination messages
    assert kinds == {UnlayeredLinearScheme, str}


def test_projection_refuses_block_form_faults_like_the_reference():
    n = sparse_cycle_net(3, 2)
    horizon = 3
    lifted = lift_code(n, random_scheme(n, horizon, random.Random(5)))
    bottom_row = 2 * (horizon + 1)

    def with_entry(mats, key, row, col):
        arr = mats[key].to_array().copy()
        arr[row, col] = 1
        return {**mats, key: GfMatrix(mats[key].field, arr)}

    faulty = [
        (LinearCode(lifted.network, with_entry(lifted.encoders, 1, bottom_row, 0),
                    lifted.decoders, lifted.relays),
         "encoder 1 writes into the reserved bottom band"),
        (LinearCode(lifted.network, lifted.encoders, lifted.decoders,
                    with_entry(lifted.relays, "c@2", bottom_row + 1, 3)),
         "relay 'c@2' writes into the reserved bottom band"),
        # decoder 3 at s reads s's top band, which holds session 1's message
        (LinearCode(lifted.network, lifted.encoders,
                    with_entry(lifted.decoders, 3, 0, 0), lifted.relays),
         "decoder 3 depends on messages sourced at the destination"),
    ]
    for code, text in faulty:
        for project in (project_code, project_code_reference):
            with pytest.raises(BlockFormError, match=f"^{text}$"):
                project(code)


def layout_net():
    """Sessions listed out of id order: a sources 3 (width 2) and 1 (width 1),
    b sources the width-0 session 2, and c and d source none."""
    fm = FieldModulus(3)
    g = identity(fm, 2)
    return network(3, 2, ["a", "b", "c", "d"],
                   [("a", "b", g), ("b", "c", g), ("c", "d", g), ("d", "a", g)],
                   [(3, "a", "c", 2), (2, "b", "d", 0), (1, "a", "d", 1)])


def test_message_layout_equals_the_per_session_sums():
    n = layout_net()
    for horizon in range(1, 5):
        for v in n.nodes:
            want = message_columns_reference(n, horizon, v)
            assert _message_columns(n, horizon, v) == want
            assert message_block_width(n, horizon, v) == sum(
                s.width for s in n.sessions_sourced_at(v)) * horizon
        # session 1 comes first in a's block, whatever the listing order
        assert _message_columns(n, horizon, "a") == {
            1: slice(0, horizon), 3: slice(horizon, 3 * horizon)}
        assert _message_columns(n, horizon, "b") == {2: slice(0, 0)}
        assert message_block_width(n, horizon, "b") == 0
        assert _message_columns(n, horizon, "c") == {}
        assert message_block_width(n, horizon, "d") == 0


def test_reciprocal_and_unfolding_build_their_own_message_layout():
    n = layout_net()
    # a layout the derived networks must not read
    n.__dict__["_message_layout"] = {v: ({}, 99) for v in n.nodes}
    rec = reciprocal(n)
    for horizon in range(1, 5):
        un = unfold(n, horizon)
        for net, names in ((rec, n.nodes), (un.base, [f"{v}@0" for v in n.nodes])):
            for v in names:
                assert _message_columns(net, horizon, v) == message_columns_reference(
                    net, horizon, v)
                assert message_block_width(net, horizon, v) == sum(
                    s.width for s in net.sessions_sourced_at(v)) * horizon
        assert message_block_width(rec, horizon, "c") == 2 * horizon
        assert message_block_width(un.base, horizon, "a@0") == 3 * horizon
