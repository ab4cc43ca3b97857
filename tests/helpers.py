"""Shared builders and oracles for the test suite."""

import random
import re
import sys

import numpy as np

from ldnc import gf_linalg
from ldnc.coding import LinearCode, TransferMap, _arrivals, is_solving, validate_code
from ldnc.errors import CodeBindingError, NotLayeredError, ParseError
from ldnc.gf_linalg import (
    FieldModulus,
    GfMatrix,
    identity,
    random_matrix,
    shift_matrix,
    zeros,
)
from ldnc.network import Edge, LayeredNetwork, Network, Session, detect_layers, network
from ldnc.search import (
    SearchResult,
    _CHUNK,
    _code_from_entries,
    _solved,
    _stacks,
    _verified,
    candidate_code,
)

GF2 = FieldModulus(2)


# ---------------------------------------------------------------------------
# Fixed instances
# ---------------------------------------------------------------------------


def two_unicast_network():
    """Two-unicast, three-layer shift network on six nodes.

    Direct links (1-3, 2-4, 3-5, 4-6) run at full strength, crossing links
    at strength one; with q = 2 any doubly-shifted interference term
    vanishes, so the all-identity code solves the instance.
    """
    strong = shift_matrix(GF2, 2, 2)
    weak = shift_matrix(GF2, 2, 1)
    return network(
        2,
        2,
        ["1", "2", "3", "4", "5", "6"],
        [
            ("1", "3", strong),
            ("1", "4", weak),
            ("2", "3", weak),
            ("2", "4", strong),
            ("3", "5", strong),
            ("3", "6", weak),
            ("4", "5", weak),
            ("4", "6", strong),
        ],
        [(1, "1", "5", 1), (2, "2", "6", 1)],
    )


def two_unicast_code(ln=None):
    ln = ln or detect_layers(two_unicast_network())
    eye = identity(GF2, 2)
    return LinearCode(
        network=ln,
        encoders={1: eye, 2: eye},
        decoders={1: eye, 2: eye},
        relays={"3": eye, "4": eye},
    )


def _band_gain(q, band, dst_band, src_band):
    """Gain routing one coordinate band of the sender into one receive band."""
    arr = np.zeros((q, q), dtype=np.int64)
    for i in range(band):
        arr[dst_band * band + i, src_band * band + i] = 1
    return GfMatrix(GF2, arr)


def butterfly_network():
    """Classical two-unicast butterfly, embedded as orthogonal wire bands.

    Ten nodes in four layers; every wire carries a three-symbol band (one
    message worth), and the single bottleneck n1 -> n2 forces coding: the
    relay must add the two message bands for both sessions to get through.
    """
    q, band = 6, 3
    edges = [
        ("s1", "n1", _band_gain(q, band, 0, 0)),
        ("s2", "n1", _band_gain(q, band, 1, 0)),
        ("s1", "u1", _band_gain(q, band, 0, 1)),
        ("s2", "u2", _band_gain(q, band, 0, 1)),
        ("n1", "n2", _band_gain(q, band, 0, 0)),
        ("u1", "v1", _band_gain(q, band, 0, 0)),
        ("u2", "v2", _band_gain(q, band, 0, 0)),
        ("n2", "t1", _band_gain(q, band, 0, 0)),
        ("n2", "t2", _band_gain(q, band, 0, 1)),
        ("v1", "t2", _band_gain(q, band, 1, 0)),
        ("v2", "t1", _band_gain(q, band, 1, 0)),
    ]
    return network(
        2,
        q,
        ["s1", "s2", "n1", "u1", "u2", "n2", "v1", "v2", "t1", "t2"],
        edges,
        [(1, "s1", "t1", 1), (2, "s2", "t2", 1)],
    )


def butterfly_code(ln=None):
    """The classical code: the bottleneck adds, destinations cancel."""
    ln = ln or detect_layers(butterfly_network())
    band = 3
    eye = identity(GF2, band).to_array()
    zero = np.zeros((band, band), dtype=np.int64)

    def blocks(rows_of_blocks):
        return GfMatrix(GF2, np.block(rows_of_blocks))

    both = blocks([[eye], [eye]])           # send the message on both bands
    add_both = blocks([[eye, eye], [zero, zero]])
    forward = blocks([[eye, zero], [zero, zero]])
    fanout = blocks([[eye, zero], [eye, zero]])
    cancel = blocks([[eye, eye]])
    return LinearCode(
        network=ln,
        encoders={1: both, 2: both},
        decoders={1: cancel, 2: cancel},
        relays={
            "n1": add_both,
            "u1": forward,
            "u2": forward,
            "n2": fanout,
            "v1": forward,
            "v2": forward,
        },
    )


def single_edge_identity(p=2, q=2):
    """One edge, identity gain, one session whose message fills the vector."""
    fm = FieldModulus(p)
    n = network(p, q, ["a", "b"], [("a", "b", identity(fm, q))], [(1, "a", "b", q)])
    ln = detect_layers(n)
    code = LinearCode(
        network=ln,
        encoders={1: identity(fm, q)},
        decoders={1: identity(fm, q)},
        relays={},
    )
    return ln, code


def identity_edge(p=2, q=1, width=1):
    fm = FieldModulus(p)
    n = network(p, q, ["a", "b"], [("a", "b", identity(fm, q))], [(1, "a", "b", width)])
    return detect_layers(n)


def shared_source(p, q):
    # sessions 1 and 3 share source a; session 2, of width 0, sits beside them
    fm = FieldModulus(p)
    n = network(
        p, q, ["a", "b", "c"], [("a", "b", identity(fm, q)), ("a", "c", identity(fm, q))],
        [(1, "a", "b", 1), (2, "a", "c", 0), (3, "a", "c", 1)],
    )
    return detect_layers(n)


def unreachable_destination(p, q):
    # session 2's destination d hears only b, which sources nothing
    fm = FieldModulus(p)
    n = network(
        p, q, ["a", "b", "c", "d"], [("a", "c", identity(fm, q)), ("b", "d", identity(fm, q))],
        [(1, "a", "c", 1), (2, "a", "d", 1)],
    )
    return detect_layers(n)


def shared_endpoint_family():
    """Small instances whose two or three sessions share one source or one
    destination, over GF(2) and GF(3), q in {1, 2}, one and two hops.

    The messages at the shared node overfill its q symbols, fill them
    exactly or sit beside a width-0 session; no single message is longer
    than q.  The shared-source networks have identity gains, so those
    that fit have solving codes; the shared-destination ones have random
    gains from a fixed seed.  Every code space is at most 2**20.
    """
    rng = random.Random(2026)
    out = []
    for p, q, hops in ((2, 1, 1), (3, 1, 1), (2, 2, 1), (3, 2, 1), (2, 2, 2), (3, 2, 2)):
        fm = FieldModulus(p)
        for widths in ((1, 1), (1, 0), (1, 0, 1), (1, 1, 1), (2, 1)):
            if hops * max(widths) > q:
                continue
            ends = [f"t{i}" for i in range(len(widths))]
            path = [("hub", "r"), *(("r", t) for t in ends)] if hops == 2 else [
                ("hub", t) for t in ends]
            mid = ["r"] if hops == 2 else []
            for reverse in (False, True):
                edges = [(b, a, random_matrix(fm, q, q, rng)) for a, b in path] if reverse else [
                    (a, b, identity(fm, q)) for a, b in path]
                sessions = [(i + 1, t, "hub", w) if reverse else (i + 1, "hub", t, w)
                            for i, (t, w) in enumerate(zip(ends, widths))]
                ln = detect_layers(network(p, q, ["hub", *mid, *ends], edges, sessions))
                if p ** ln._code_layout[2] <= 1 << 20:
                    out.append(ln)
    return out


def layout_edge_cases(p, q):
    """A width-0 session beside others, a width-2 session, two sessions
    sharing a source and a destination no source reaches."""
    return [shared_source(p, q), identity_edge(p, q, width=2), unreachable_destination(p, q)]


# ---------------------------------------------------------------------------
# Random generators (deterministic given the rng)
# ---------------------------------------------------------------------------


def random_layered_instance(
    rng: random.Random,
    p_choices=(2, 3),
    q_choices=(1, 2, 3),
    horizon_choices=(1, 2),
    max_per_layer=5,
    max_sessions=3,
    width_choices=(1, 1, 1, 2, 0),
):
    for _ in range(200):
        p = rng.choice(p_choices)
        q = rng.choice(q_choices)
        horizon = rng.choice(horizon_choices)
        fm = FieldModulus(p)
        sizes = [rng.randint(1, max_per_layer) for _ in range(horizon + 1)]
        layer_nodes = [
            [f"L{m}n{i}" for i in range(sizes[m])] for m in range(horizon + 1)
        ]
        nodes = [v for layer in layer_nodes for v in layer]
        edges = []
        for m in range(1, horizon + 1):
            for v in layer_nodes[m]:
                feeds = rng.sample(
                    layer_nodes[m - 1], rng.randint(1, len(layer_nodes[m - 1]))
                )
                for u in feeds:
                    edges.append((u, v, random_matrix(fm, q, q, rng)))
        sessions = []
        for k in range(1, rng.randint(1, max_sessions) + 1):
            sessions.append(
                (
                    k,
                    rng.choice(layer_nodes[0]),
                    rng.choice(layer_nodes[horizon]),
                    rng.choice(width_choices),
                )
            )
        candidate = network(p, q, nodes, edges, sessions)
        try:
            return detect_layers(candidate)
        except NotLayeredError:
            continue
    raise RuntimeError("could not generate a layered instance")


def random_code(ln: LayeredNetwork, rng: random.Random) -> LinearCode:
    fm = ln.base.field
    q = ln.base.q
    return LinearCode(
        network=ln,
        encoders={
            s.id: random_matrix(fm, q, ln.message_length(s), rng)
            for s in ln.base.sessions
        },
        decoders={
            s.id: random_matrix(fm, ln.message_length(s), q, rng)
            for s in ln.base.sessions
        },
        relays={v: random_matrix(fm, q, q, rng) for v in ln.relay_nodes()},
    )


def random_messages(ln: LayeredNetwork, rng: random.Random, cols=1):
    return [
        random_matrix(ln.base.field, ln.message_length(s), cols, rng)
        for s in ln.base.sessions_sorted()
    ]


def all_message_columns(field: FieldModulus, lengths):
    """One matrix per length, whose shared columns enumerate every tuple."""
    p = field.p
    total = sum(lengths)
    count = p**total
    cols = np.arange(count, dtype=np.int64)
    mats = []
    offset = 0
    for length in lengths:
        arr = np.zeros((length, count), dtype=np.int64)
        for r in range(length):
            arr[r] = (cols // (p ** (offset + r))) % p
        mats.append(GfMatrix(field, arr))
        offset += length
    return mats


def all_message_tuples(ln: LayeredNetwork):
    return all_message_columns(
        ln.base.field, [ln.message_length(s) for s in ln.base.sessions_sorted()]
    )


# ---------------------------------------------------------------------------
# Unlayered schemes
# ---------------------------------------------------------------------------


def random_scheme(net, horizon, rng: random.Random, density=1.0):
    """Uniformly random time-indexed scheme over the given horizon."""
    from ldnc.layering import UnlayeredLinearScheme, message_block_width

    fm = net.field
    q = net.q
    encoders = {}
    for v in net.nodes:
        width = message_block_width(net, horizon, v)
        for m in range(horizon):
            if rng.random() <= density:
                encoders[(v, m)] = random_matrix(fm, q, width + q * m, rng)
    decoders = {
        s.id: random_matrix(fm, s.width * horizon, q * horizon, rng)
        for s in net.sessions
    }
    return UnlayeredLinearScheme(
        horizon=horizon, node_encoders=encoders, decoders=decoders
    )


def schemes_equal(net, a, b):
    """Equality with absent encoders treated as zero maps."""
    from ldnc.layering import message_block_width

    if a.horizon != b.horizon or set(a.decoders) != set(b.decoders):
        return False
    if any(a.decoders[k] != b.decoders[k] for k in a.decoders):
        return False
    fm = net.field
    for v in net.nodes:
        width = message_block_width(net, a.horizon, v)
        for m in range(a.horizon):
            blank = zeros(fm, net.q, width + net.q * m)
            if a.node_encoders.get((v, m), blank) != b.node_encoders.get((v, m), blank):
                return False
    return True


def message_columns_reference(net, horizon, node):
    """Columns of each session's message in ``node``'s own message block,
    summed session by session from ``sessions_sourced_at``."""
    columns, pos = {}, 0
    for s in net.sessions_sourced_at(node):
        columns[s.id] = slice(pos, pos + s.width * horizon)
        pos += s.width * horizon
    return columns


def project_code_reference(code: LinearCode):
    """``layering.project_code`` as an oracle: each receive hstacks the
    fresh bottom band onto a copy's dependence before the relay or the
    decoder applies, and each node's message block is summed session by
    session.  Raises the same ``BlockFormError`` messages."""
    from ldnc.errors import BlockFormError
    from ldnc.gf_linalg import matmul_mod
    from ldnc.layering import UnfoldedNetwork, UnlayeredLinearScheme, stage_name

    un = code.network
    if not isinstance(un, UnfoldedNetwork):
        raise CodeBindingError("project_code needs a code bound to an unfolded network")
    validate_code(un, code)
    n = un.original
    horizon = un.horizon
    q = n.q
    big = q * (horizon + 2)
    fm = n.field
    top = slice(0, q)
    bottom = slice(q * (horizon + 1), big)

    for sid, enc in code.encoders.items():
        if enc.to_array()[bottom].any():
            raise BlockFormError(f"encoder {sid} writes into the reserved bottom band")
    for node, relay in code.relays.items():
        if relay.to_array()[bottom].any():
            raise BlockFormError(f"relay {node!r} writes into the reserved bottom band")

    def own_width(v):
        return sum(s.width for s in n.sessions_sourced_at(v)) * horizon

    # dependence[v]: columns are [v's own messages, y_v[0], .., y_v[m-1]]
    dependence = {}
    for v in n.nodes:
        arr = np.zeros((big, own_width(v)), dtype=np.int64)
        for sid, cols in message_columns_reference(n, horizon, v).items():
            arr[:, cols] = code.encoders[sid].to_array()
        dependence[v] = arr
    # a receive appends the fresh bottom band as the newest history column block
    fresh = np.zeros((big, q), dtype=np.int64)
    fresh[bottom] = np.eye(q, dtype=np.int64)

    node_encoders = {}
    for layer in range(horizon):
        for v in n.nodes:
            if layer:
                relay = code.relays[stage_name(v, layer)].to_array()
                dependence[v] = matmul_mod(fm.p, (relay, np.hstack([dependence[v], fresh])))
            enc = GfMatrix(fm, dependence[v][top].copy())
            if not enc.is_zero():
                node_encoders[(v, layer)] = enc

    decoders = {}
    for s in n.sessions_sorted():
        width = own_width(s.destination)
        received = np.hstack([dependence[s.destination], fresh])
        full = matmul_mod(fm.p, (code.decoders[s.id].to_array(), received))
        if full[:, :width].any():
            raise BlockFormError(
                f"decoder {s.id} depends on messages sourced at the destination"
            )
        decoders[s.id] = GfMatrix(fm, full[:, width:].copy())

    return UnlayeredLinearScheme(
        horizon=horizon, node_encoders=node_encoders, decoders=decoders
    )


def triangle_network(p=2, q=1):
    """Unlayered three-node demo: the chord a -> c skips the relay layer."""
    fm = FieldModulus(p)
    g = identity(fm, q)
    return network(
        p, q,
        ["a", "b", "c"],
        [("a", "b", g), ("b", "c", g), ("a", "c", g)],
        [(1, "a", "c", 1)],
    )


# ---------------------------------------------------------------------------
# Deterministic instance families for the acceptance sweeps
# ---------------------------------------------------------------------------


def _gain_assignments(possible_edges, palette, stride=1):
    """Every assignment of {absent} | palette to the edge slots, nonempty."""
    import itertools

    choices = len(palette) + 1
    for idx, assign in enumerate(
        itertools.product(range(choices), repeat=len(possible_edges))
    ):
        if stride > 1 and idx % stride:
            continue
        edges = [
            (u, v, palette[c - 1])
            for (u, v), c in zip(possible_edges, assign)
            if c
        ]
        if edges:
            yield edges


def gf2_instance_family(max_entries=20):
    """Deterministic family of small GF(2) layered instances.

    Covers one- and two-session networks over one, two and three hops,
    with shared sources, shared destinations, crossed wirings, and both
    scalar and length-2 vectors; every instance keeps its free-entry
    count at or below ``max_entries`` so its full code space can be
    scanned.
    """
    from ldnc.search import free_entry_count

    fm = FieldModulus(2)
    one = [identity(fm, 1)]
    two = [shift_matrix(fm, 2, 1), identity(fm, 2)]
    two_shift = [shift_matrix(fm, 2, 1)]
    out = []

    def collect(nodes, possible, sessions_list, q, palette, stride=1):
        for edges in _gain_assignments(possible, palette, stride):
            for sessions in sessions_list:
                candidate = network(2, q, nodes, edges, sessions)
                try:
                    ln = detect_layers(candidate)
                except NotLayeredError:
                    continue
                if free_entry_count(ln) <= max_entries:
                    out.append(ln)

    # one session, one hop
    collect(["s", "d"], [("s", "d")], [[(1, "s", "d", 1)]], 1, one)
    collect(["s", "d"], [("s", "d")],
            [[(1, "s", "d", 1)], [(1, "s", "d", 2)]], 2, two)

    # two sessions, one hop, straight and crossed demands
    direct_pairs = [(s, d) for s in ("s1", "s2") for d in ("d1", "d2")]
    wirings = [
        [(1, "s1", "d1", 1), (2, "s2", "d2", 1)],
        [(1, "s1", "d2", 1), (2, "s2", "d1", 1)],
    ]
    collect(["s1", "s2", "d1", "d2"], direct_pairs, wirings, 1, one)
    collect(["s1", "s2", "d1", "d2"], direct_pairs, wirings, 2, two)

    # one session, two hops, widening relay layers
    for m in (1, 2, 3):
        relays = [f"r{i}" for i in range(m)]
        possible = [("s", r) for r in relays] + [(r, "d") for r in relays]
        collect(["s", "d", *relays], possible,
                [[(1, "s", "d", 1)], [(1, "s", "d", 2)]], 1, one)
        if m <= 2:
            collect(["s", "d", *relays], possible, [[(1, "s", "d", 1)]], 2, two)

    # three sessions, one hop, straight demands
    triple = [(s, d) for s in ("s1", "s2", "s3") for d in ("d1", "d2", "d3")]
    collect(
        ["s1", "s2", "s3", "d1", "d2", "d3"], triple,
        [[(1, "s1", "d1", 1), (2, "s2", "d2", 1), (3, "s3", "d3", 1)]],
        1, one, stride=4,
    )

    # two sessions, two hops
    for m, stride in ((1, 1), (2, 1), (3, 4)):
        relays = [f"r{i}" for i in range(m)]
        nodes = ["s1", "s2", *relays, "d1", "d2"]
        possible = [(s, r) for s in ("s1", "s2") for r in relays] + [
            (r, d) for r in relays for d in ("d1", "d2")
        ]
        collect(nodes, possible, wirings, 1, one, stride=stride)
    # the q=2 variant sits exactly at the entry cap
    relays = ["r0"]
    possible = [(s, "r0") for s in ("s1", "s2")] + [("r0", d) for d in ("d1", "d2")]
    collect(["s1", "s2", "r0", "d1", "d2"], possible, wirings, 2, two_shift)

    # shared source and shared destination
    shared_src = [("s", r) for r in ("r0", "r1")] + [
        (r, d) for r in ("r0", "r1") for d in ("d1", "d2")
    ]
    collect(
        ["s", "r0", "r1", "d1", "d2"], shared_src,
        [[(1, "s", "d1", 1), (2, "s", "d2", 1)]], 1, one,
    )
    for m in (1, 2):
        relays = [f"r{i}" for i in range(m)]
        possible = [(s, r) for s in ("s1", "s2") for r in relays] + [
            (r, "d") for r in relays
        ]
        collect(
            ["s1", "s2", *relays, "d"], possible,
            [[(1, "s1", "d", 1), (2, "s2", "d", 1)]], 1, one,
        )

    # one session, three hops
    for (m1, m2), stride in (
        ((1, 1), 1), ((2, 1), 1), ((1, 2), 1), ((2, 2), 1),
        ((3, 1), 1), ((1, 3), 1),
    ):
        front = [f"a{i}" for i in range(m1)]
        back = [f"b{i}" for i in range(m2)]
        possible = (
            [("s", r) for r in front]
            + [(u, v) for u in front for v in back]
            + [(r, "d") for r in back]
        )
        collect(["s", "d", *front, *back], possible,
                [[(1, "s", "d", 1)]], 1, one, stride=stride)

    # one session, four hops
    possible = [("s", "a0"), ("a0", "b0"), ("b0", "c0"), ("c0", "d")]
    collect(["s", "d", "a0", "b0", "c0"], possible,
            [[(1, "s", "d", 1)]], 1, one)

    return out


def three_node_unfolding_family():
    """Every directed graph on three nodes, swept over q and horizon caps.

    Yields (network, horizon) pairs over GF(2) with one session, plus a
    two-session variant in which node b decodes one message and sources
    another, exercising the dual-role case that only unfolding supports.
    """
    names = ["a", "b", "c"]
    pairs = [(u, v) for u in names for v in names if u != v]
    fm = FieldModulus(2)
    for q in (1, 2):
        palette = [shift_matrix(fm, q, q - 1), identity(fm, q)]
        for horizon in (1, 2):
            for mask in range(1 << len(pairs)):
                edges = [
                    (u, v, palette[i % len(palette)])
                    for i, (u, v) in enumerate(pairs)
                    if mask >> i & 1
                ]
                yield network(2, q, names, edges, [(1, "a", "b", 1)]), horizon
                if mask % 4 == 0:
                    yield network(
                        2, q, names, edges,
                        [(1, "a", "b", 1), (2, "b", "c", 1)],
                    ), horizon


def band_reversed_code(code: LinearCode, target: LayeredNetwork) -> LinearCode:
    """Carry a code on ``reciprocal_layered(unfold(n, T))`` onto ``target``,
    which is ``unfold(reciprocal(n), T)``.

    The two networks match under v@m -> v@(T-m) and the band reversal J,
    which maps block b of the q(T+2) coordinates to block T+1-b: J·G·J
    turns each transposed channel gain, which moves the sender's bottom
    band into the receiver's top band, back into an embedded gain, and
    leaves memory edges the identity.  So the code with encoders J·C,
    relays J·F·J and decoders D·J, relays renamed, has the same transfer
    grid on ``target``.
    """
    horizon = target.horizon
    q = target.original.q
    eye = np.eye(q, dtype=np.int64)
    j = GfMatrix(target.base.field, np.kron(np.eye(horizon + 2, dtype=np.int64)[::-1], eye))

    def moved(name):
        v, m = name.rsplit("@", 1)
        return f"{v}@{horizon - int(m)}"

    return LinearCode(
        network=target,
        encoders={k: j @ c for k, c in code.encoders.items()},
        decoders={k: d @ j for k, d in code.decoders.items()},
        relays={moved(v): j @ f @ j for v, f in code.relays.items()},
    )


# ---------------------------------------------------------------------------
# Independent oracle: explicit sum over all source-destination paths
# ---------------------------------------------------------------------------


def path_sum_transfer(ln: LayeredNetwork, code: LinearCode) -> TransferMap:
    """Transfer grid computed by enumerating every directed path and
    summing the product of decoder, gains, relay matrices and encoder
    along it.  Exponential in path count; used only to check the
    propagation implementation.
    """
    sessions = ln.base.sessions_sorted()
    fm = ln.base.field
    grid = []
    for sl in sessions:
        row = []
        for sk in sessions:
            total = zeros(fm, ln.message_length(sk), ln.message_length(sl))

            def walk(node, acc):
                nonlocal total
                for e in ln.base.out_edges(node):
                    reached = e.gain @ acc
                    if ln.layer_of(e.dst) == ln.horizon:
                        if e.dst == sk.destination:
                            total = total + (code.decoders[sk.id] @ reached)
                    else:
                        walk(e.dst, code.relays[e.dst] @ reached)

            walk(sl.source, code.encoders[sl.id])
            row.append(total)
        grid.append(tuple(row))
    return TransferMap(sessions=sessions, grid=tuple(grid))


def candidate_digits_reference(start: int, count: int, total_entries: int, p: int) -> np.ndarray:
    """Base-p digits of candidates start .. start+count-1, one row per entry
    and one row pass each, up to the largest index's top digit.

    The decoder that :func:`ldnc.search._candidate_digits` used before it
    wrote the rows with runs of at least ``count`` as two blocks; the two
    must agree digit for digit.
    """
    top = start + count - 1
    rows, run = 0, 1
    while rows < total_entries and run <= top:
        rows, run = rows + 1, run * p
    digits = np.empty((rows, count), dtype=np.int64)
    run = 1
    for e in range(rows):
        offset = start % run
        first = (start // run) % p
        if run >= count:
            # at most two runs: the digit rolls over once inside the chunk
            split = min(run - offset, count)
            digits[e, :split] = first
            digits[e, split:] = (first + 1) % p
        else:
            runs = -(-(offset + count) // run)
            values = (first + np.arange(runs, dtype=np.int64)) % p
            digits[e] = np.repeat(values, run)[offset:offset + count]
        run *= p
    return digits


def scan_chunk(ln: LayeredNetwork, start: int, count: int) -> np.ndarray:
    """Ascending offsets from ``start`` of the solving candidates among
    start .. start+count-1, decoders included."""
    digits = candidate_digits_reference(start, count, ln._code_layout[2], ln.base.field.p)
    mats = _stacks(ln, digits, "CFD")
    return _solved(ln.base.field.p, mats["D"], _arrivals(ln, mats["C"], mats["F"], count), count)


def record_product_widths(monkeypatch) -> list[int]:
    """A list that gains the inner length of every ``np.matmul`` call, so
    of every chunk of products that ``gf_linalg.matmul_mod`` sums."""
    widths: list[int] = []
    matmul = np.matmul

    def spy(a, b):
        widths.append(a.shape[-1])
        return matmul(a, b)

    monkeypatch.setattr(np, "matmul", spy)
    return widths


def exhaustive_search_reference(ln: LayeredNetwork, budget: int) -> SearchResult:
    """Full-candidate scan: every index below the bound, decoders included.

    The chunk loop that :func:`ldnc.search.exhaustive_search` ran before it
    solved for the decoders; the two must agree on outcome, index,
    scanned count and code.
    """
    space = ln.base.field.p ** ln._code_layout[2]
    bound = min(space, budget)
    for start in range(0, bound, _CHUNK):
        count = min(_CHUNK, bound - start)
        hits = scan_chunk(ln, start, count)
        if hits.size:
            index = start + int(hits[0])
            code = _verified(ln, candidate_code(ln, index), f"index {index}")
            return SearchResult("found", code, index, index + 1)
    return SearchResult("exhausted" if bound == space else "budget-exceeded", None, None, bound)


def random_search_reference(ln: LayeredNetwork, trials: int, seed: int = 0) -> SearchResult:
    """Per-trial random search: one ``GfMatrix`` code checked per trial.

    Draws entries in the same order as :func:`ldnc.search.random_search`,
    so the two must agree on outcome, trial index and code.
    """
    total_entries = ln._code_layout[2]
    p = ln.base.field.p
    rng = random.Random(seed)
    for trial in range(1, trials + 1):
        entries = [rng.randrange(p) for _ in range(total_entries)]
        code = _code_from_entries(ln, entries)
        if is_solving(ln, code):
            return SearchResult("found", code, trial, trial)
    return SearchResult("not-found", None, None, trials)


# ---------------------------------------------------------------------------
# Reference parser: one token per character class, walked line by line
# ---------------------------------------------------------------------------
#
# The token-by-token scanner that ``ldnc.fileformat`` used before it read
# each matrix literal as one token.  It differs from the original only
# where the original crashed or over-allocated: entries of any size are
# reduced exactly mod p, an over-long integer, a shift gain with q < 1 and
# shift gains above ``MAX_DENSE_BYTES`` raise ParseError.

_REF_RESERVED = {
    "p", "q", "nodes", "edges", "sessions", "gain", "shift", "g", "width",
    "T", "C", "D", "F", "W",
}
_REF_SECTIONS = {"p", "q", "nodes", "edges", "sessions"}
_REF_TOKEN = re.compile(r"->|[:\[\],=]|[A-Za-z0-9_@.]+")


def _ref_tokenize(text: str) -> list[str]:
    tokens = []
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0]
        pos = 0
        for match in _REF_TOKEN.finditer(line):
            if line[pos:match.start()].strip():
                raise ParseError(f"unexpected characters {line[pos:match.start()]!r}")
            tokens.append(match.group())
            pos = match.end()
        if line[pos:].strip():
            raise ParseError(f"unexpected characters {line[pos:].strip()!r}")
    return tokens


class _RefStream:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
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
            raise ParseError(f"expected {token!r}, got {got!r}")

    def integer(self) -> int:
        tok = self.next()
        if not tok.isdigit():
            raise ParseError(f"expected an integer, got {tok!r}")
        if len(tok) > sys.get_int_max_str_digits():
            raise ParseError("integer too long")
        return int(tok)

    def node_id(self) -> str:
        tok = self.next()
        if tok in _REF_RESERVED or not re.fullmatch(r"[A-Za-z0-9_@.]+", tok):
            raise ParseError(f"invalid node id {tok!r}")
        return tok

    def matrix(self, field: FieldModulus, empty_cols=None) -> GfMatrix:
        self.expect("[")
        if empty_cols is not None and self.peek() == "]":
            self.next()
            return GfMatrix(field, np.zeros((0, empty_cols), dtype=np.int64))
        rows = []
        while True:
            rows.append(self._row())
            tok = self.next()
            if tok == "]":
                break
            if tok != ",":
                raise ParseError(f"expected ',' or ']' in matrix, got {tok!r}")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ParseError("matrix rows have unequal lengths")
        return GfMatrix.from_rows(field, [[v % field.p for v in r] for r in rows])

    def _row(self) -> list[int]:
        self.expect("[")
        entries = []
        if self.peek() == "]":
            self.next()
            return entries
        while True:
            entries.append(self.integer())
            tok = self.next()
            if tok == "]":
                return entries
            if tok != ",":
                raise ParseError(f"expected ',' or ']' in row, got {tok!r}")

    def vector(self, field: FieldModulus) -> list[int]:
        return [v % field.p for v in self._row()]


def reference_parse_network(text: str) -> Network:
    ts = _RefStream(_ref_tokenize(text))
    q = None
    field = None
    nodes, edges, sessions, seen = [], [], [], set()
    shift_bytes = 0

    def gain_matrix(field):
        nonlocal shift_bytes
        if ts.peek() == "shift":
            ts.next()
            ts.expect("g")
            ts.expect("=")
            strength = ts.integer()
            if not 0 <= strength <= q or q < 1:
                raise ParseError(f"shift strength {strength} outside 0..{q}")
            shift_bytes += 8 * q * q
            if shift_bytes > gf_linalg.MAX_DENSE_BYTES:
                raise ParseError("shift gains too large")
            return shift_matrix(field, q, strength)
        return ts.matrix(field)

    while ts.peek() is not None:
        section = ts.next()
        if section not in _REF_SECTIONS:
            raise ParseError(f"expected a section keyword, got {section!r}")
        if section in seen:
            raise ParseError(f"duplicate section {section!r}")
        seen.add(section)
        ts.expect(":")
        if section == "p":
            try:
                field = FieldModulus(ts.integer())
            except ValueError as exc:
                raise ParseError(str(exc)) from exc
        elif section == "q":
            q = ts.integer()
        elif section == "nodes":
            while ts.peek() is not None and ts.peek() not in _REF_SECTIONS:
                nodes.append(ts.node_id())
        elif section == "edges":
            if field is None or q is None:
                raise ParseError("edges section requires p and q to come first")
            while ts.peek() is not None and ts.peek() not in _REF_SECTIONS:
                src = ts.node_id()
                ts.expect("->")
                dst = ts.node_id()
                ts.expect("gain")
                edges.append(Edge(src, dst, gain_matrix(field)))
        elif section == "sessions":
            while ts.peek() is not None and ts.peek() not in _REF_SECTIONS:
                sid = ts.integer()
                ts.expect(":")
                src = ts.node_id()
                ts.expect("->")
                dst = ts.node_id()
                ts.expect("width")
                sessions.append(Session(sid, src, dst, ts.integer()))
    if field is None or q is None:
        raise ParseError("network file must declare p and q")
    return Network(field, q, tuple(nodes), tuple(edges), tuple(sessions))


def reference_parse_code(text: str, ln: LayeredNetwork) -> LinearCode:
    ts = _RefStream(_ref_tokenize(text))
    ts.expect("T")
    ts.expect(":")
    horizon = ts.integer()
    if horizon != ln.horizon:
        raise CodeBindingError(f"code horizon {horizon} != network horizon {ln.horizon}")
    field = ln.base.field
    encoders, decoders, relays = {}, {}, {}
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
            raise ParseError(f"expected C, D or F record, got {kind!r}")
    code = LinearCode(network=ln, encoders=encoders, decoders=decoders, relays=relays)
    validate_code(ln, code)
    return code


def reference_parse_messages(text: str, ln: LayeredNetwork) -> list[GfMatrix]:
    ts = _RefStream(_ref_tokenize(text))
    field = ln.base.field
    vectors = {}
    while ts.peek() is not None:
        ts.expect("W")
        sid = ts.integer()
        ts.expect(":")
        if sid in vectors:
            raise ParseError(f"duplicate message for session {sid}")
        vectors[sid] = ts.vector(field)
    sessions = ln.base.sessions_sorted()
    if {s.id for s in sessions} != set(vectors):
        raise ParseError("message vectors do not match the sessions")
    out = []
    for s in sessions:
        vec = vectors[s.id]
        if len(vec) != ln.message_length(s):
            raise ParseError(f"message for session {s.id} has the wrong length")
        out.append(GfMatrix(field, np.array(vec, dtype=np.int64).reshape(-1, 1)))
    return out


_REF_ROW = r"\[(?:[0-9]+(?:,[0-9]+)*)?\]"
_REF_VECTOR = re.compile(_REF_ROW)
_REF_MATRIX = re.compile(rf"\[{_REF_ROW}(?:,{_REF_ROW})*\]")


def literal_reference(token: str, matrix: bool, p: int) -> np.ndarray:
    """``fileformat``'s check of one matrix or vector literal token in its
    regex form, as an oracle: one grammar match on the literal with its
    whitespace removed, a search for whitespace inside a digit run, and
    each entry read as a Python integer.  Returns the entries mod p,
    shaped (rows, cols) for a matrix and flat for a vector, or raises the
    same ``ParseError`` messages."""
    flat = "".join(token.split())
    grammar = _REF_MATRIX if matrix else _REF_VECTOR
    if not grammar.fullmatch(flat) or re.search(r"[0-9]\s+[0-9]", token):
        raise ParseError(f"malformed matrix or vector {token[:40]!r}")
    entries = []
    for digits in re.findall(r"[0-9]+", flat):
        try:
            entries.append(int(digits) % p)
        except ValueError:  # more digits than int() converts
            raise ParseError(f"integer of {len(digits)} digits is too long") from None
    entries = np.array(entries, dtype=np.int64)
    if not matrix:
        return entries
    rows = flat[2:-2].split("],[")
    widths = {row.count(",") + 1 if row else 0 for row in rows}
    if len(widths) != 1:
        raise ParseError("matrix rows have unequal lengths")
    return entries.reshape(len(rows), widths.pop())
