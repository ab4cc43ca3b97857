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
    lift_code,
    project_code,
    simulate_unlayered,
    unfold,
    validate_scheme,
)
from ldnc.network import detect_layers, network, reciprocal

from helpers import (
    all_message_columns,
    random_code,
    random_scheme,
    schemes_equal,
    triangle_network,
)

GF2 = FieldModulus(2)


def two_node_net(p=2, q=1):
    fm = FieldModulus(p)
    return network(
        p, q, ["a", "b"], [("a", "b", identity(fm, q))], [(1, "a", "b", 1)]
    )


# ---------------------------------------------------------------------------
# unfold
# ---------------------------------------------------------------------------


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


def big_cycle(q, rng):
    """a -> b -> c -> a with random gains over GF(2**31 - 1); a sends to c."""
    gains = [random_matrix(BIG, q, q, rng) for _ in range(3)]
    edges = [(u, v, g) for (u, v), g in zip((("a", "b"), ("b", "c"), ("c", "a")), gains)]
    return network(BIG.p, q, ["a", "b", "c"], edges, [(1, "a", "c", 1)])


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
    bottom = slice(q * (horizon + 1), None)
    for _ in range(3):
        code = random_code(un, rng)
        blocked = {}
        for name, mats in (("encoders", code.encoders), ("relays", code.relays)):
            blocked[name] = {}
            for key, m in mats.items():
                arr = m.to_array().copy()
                arr[bottom] = 0
                blocked[name][key] = GfMatrix(BIG, arr)
        code = LinearCode(network=un, decoders=code.decoders, **blocked)
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
