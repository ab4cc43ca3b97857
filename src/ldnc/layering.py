"""Unfolding arbitrary networks over time into layered ones.

A network run for ``T`` time instants becomes a ``T+1``-stage layered
network: node ``v`` appears once per layer as ``v@0 .. v@T``, each
channel edge is repeated between consecutive layers with its gain
embedded into a larger space, and identity "memory" edges carry a node's
accumulated knowledge to its next copy.

The enlarged transmission vector of a copy is ``T+2`` blocks of ``q``
rows, numbered 0..T+1:

* block 0, the top band -- the symbols the node actually sends at that
  instant,
* blocks 1..T, the state band -- block m holds a source's contribution
  for instant m until layer m consumes it; from then on it is history
  slot m-1, so received vector ``y[h]`` sits in block h+1,
* block T+1, the bottom band -- reserved: it stays zero on transmit, and
  the embedded channel gains deliver the fresh superposition into it on
  receive.

:func:`lift_code` turns any time-indexed linear scheme into a layered
code on the unfolded network with identical end-to-end behavior, and
:func:`project_code` inverts the construction by reading the top band's
dependence on messages and received history; its zero tests are
``np.count_nonzero`` calls.  A node's own message block holds the
sessions it sources in id order, as ``Network._message_layout`` sets out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .coding import LinearCode, _check_matrices, _check_messages, validate_code
from .errors import BlockFormError, CodeBindingError, SchemeShapeError
from .gf_linalg import GfMatrix, block_embed, dense_capacity, identity, matmul_mod
from .network import (
    _DERIVED,
    Edge,
    LayeredNetwork,
    Network,
    Session,
    require_valid,
)


@dataclass(frozen=True)
class UnlayeredLinearScheme:
    """A linear coding scheme for an arbitrary network over ``horizon`` instants.

    ``node_encoders[(v, m)]`` maps the concatenation of v's source
    messages and its received history ``y[0..m-1]`` to the vector v
    transmits at instant m; missing entries mean "transmit zero".
    ``decoders[k]`` maps the destination's full history to the
    reconstruction of message k.
    """

    horizon: int
    node_encoders: Mapping[tuple[str, int], GfMatrix]
    decoders: Mapping[int, GfMatrix]


def message_block_width(n: Network, horizon: int, node: str) -> int:
    """Rows of ``node``'s own message block over ``horizon`` instants: the
    widths of the sessions it sources, summed, times the horizon."""
    return n._message_layout.get(node, ({}, 0))[1] * horizon


def _message_columns(n: Network, horizon: int, node: str) -> dict[int, slice]:
    """Columns of each session's message in ``node``'s own message block."""
    columns = n._message_layout.get(node, ({}, 0))[0]
    return {k: slice(lo * horizon, (lo + w) * horizon) for k, (lo, w) in columns.items()}


def validate_scheme(n: Network, scheme: UnlayeredLinearScheme) -> None:
    """Raise :class:`SchemeShapeError` unless the horizon is at least 1, each
    encoder (v, m), for a node v and an instant m before it, reads v's messages
    and y[0..m-1], and each session has one decoder of its history, over n's field."""
    require_valid(n)
    horizon = scheme.horizon
    if horizon < 1:
        raise SchemeShapeError(f"horizon must be >= 1, got {horizon}")
    widths = {v: message_block_width(n, horizon, v) for v in n.nodes}
    # encoders are optional, so only the slots of the given keys are built
    encoders = {(v, m): (n.q, widths[v] + n.q * m)
                for v, m in scheme.node_encoders if v in widths and 0 <= m < horizon}
    _check_matrices("encoder", scheme.node_encoders, encoders, n.field, SchemeShapeError,
                    complete=False)
    decoders = {s.id: (s.width * horizon, n.q * horizon) for s in n.sessions}
    _check_matrices("decoder", scheme.decoders, decoders, n.field, SchemeShapeError)


# ---------------------------------------------------------------------------
# Unfolding
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class UnfoldedNetwork(LayeredNetwork):
    """Layered view of a network unfolded over time, with its provenance."""

    original: Network


def stage_name(node: str, layer: int) -> str:
    return f"{node}@{layer}"


def unfold(n: Network, horizon: int) -> UnfoldedNetwork:
    """Unfold ``n`` over ``horizon`` time instants into a layered network.

    The result has ``|V| * (horizon + 1)`` nodes, vector length
    ``q * (horizon + 2)``, one embedded copy of every channel edge per
    layer step, and identity memory edges joining consecutive copies of
    each node.  Sessions move to ``source@0`` and ``destination@horizon``.
    The copies of an edge share one embedded gain, so the gains take
    ``(|E| + 1) * big**2`` int64 entries, and running the unfolding holds
    one ``big``-row int64 transmission per node and per edge; when either
    outgrows ``MAX_DENSE_BYTES``, ``gf_linalg.dense_capacity`` raises
    ``ValueError`` before anything is built.  The unfolding holds ``n``,
    and is the answer for it while the caller keeps it, so that
    :func:`lift_code` binds its code to the caller's unfolding.
    """
    # a float horizon equal to an int one misses, and fails below as before
    hit = _DERIVED.get((id(n), horizon)) if isinstance(horizon, int) else None
    if hit is not None:
        return hit
    require_valid(n)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    q = n.q
    big = q * (horizon + 2)
    gains = len(n.edges) + 1
    dense_capacity(gains * big * big, f"unfolding over {horizon} instants has {gains} "
                   f"gains of size {big}x{big}, which need")
    objects = len(n.nodes) * (horizon + 1) + (len(n.nodes) + len(n.edges)) * horizon
    dense_capacity(objects * big, f"unfolding over {horizon} instants has {objects} "
                   "nodes and edges, whose transmissions need")
    mem_gain = identity(n.field, big)
    position = {v: i for i, v in enumerate(n.nodes)}
    channels = [
        (position[e.src], position[e.dst], block_embed(e.gain, q, horizon)) for e in n.edges
    ]
    names = [[stage_name(v, layer) for v in n.nodes] for layer in range(horizon + 1)]
    layer_map = {name: layer for layer, row in enumerate(names) for name in row}
    edges: list[Edge] = []
    for here, there in zip(names, names[1:]):
        edges.extend(Edge(a, b, mem_gain) for a, b in zip(here, there))
        edges.extend(Edge(here[i], there[j], gain) for i, j, gain in channels)
    sessions = tuple(
        Session(s.id, names[0][position[s.source]], names[horizon][position[s.destination]],
                s.width)
        for s in n.sessions
    )
    base = Network(
        field=n.field, q=big, nodes=tuple(layer_map), edges=tuple(edges), sessions=sessions
    )
    un = UnfoldedNetwork(base=base, layer_map=layer_map, horizon=horizon, original=n)
    _DERIVED[id(n), horizon] = un
    return un


# ---------------------------------------------------------------------------
# Band bookkeeping
# ---------------------------------------------------------------------------


def _block(q: int, b: int) -> slice:
    """Rows of band block ``b``: 0 is the top band, T+1 the bottom band."""
    return slice(q * b, q * (b + 1))


# ---------------------------------------------------------------------------
# Lifting
# ---------------------------------------------------------------------------


def lift_code(n: Network, scheme: UnlayeredLinearScheme) -> LinearCode:
    """Layered code on ``unfold(n, scheme.horizon)`` equivalent to the scheme.

    The code is bound to the unfolding that :func:`unfold` returns, which
    is the caller's own while the caller holds one of this ``n``.

    Source encoders put the contribution for instant m into block m.  The
    relay at layer m restacks its node's knowledge: block m, whose pending
    contribution its top band consumes, is refilled from the fresh bottom
    band, and the scheme's encoder for instant m produces the new top
    band.  Decoders read the completed history out of the state and
    bottom bands.  The ``|V| * (horizon - 1)`` relays take ``big**2``
    int64 entries each; when they outgrow ``MAX_DENSE_BYTES``,
    ``gf_linalg.dense_capacity`` raises ``ValueError`` before anything is built.
    """
    validate_scheme(n, scheme)
    horizon = scheme.horizon
    q = n.q
    big = q * (horizon + 2)
    count = len(n.nodes) * (horizon - 1)
    dense_capacity(count * big * big, f"lifting over {horizon} instants has {count} "
                   f"relays of size {big}x{big}, which need")
    fm = n.field
    un = unfold(n, horizon)
    top = _block(q, 0)
    bottom = _block(q, horizon + 1)
    eye = np.eye(q, dtype=np.int64)

    encoders = {}
    for s in n.sessions_sorted():
        cols = _message_columns(n, horizon, s.source)[s.id]
        arr = np.zeros((big, s.width * horizon), dtype=np.int64)
        for instant in range(horizon):
            enc = scheme.node_encoders.get((s.source, instant))
            if enc is not None:
                arr[_block(q, instant)] = enc.to_array()[:, cols]
        encoders[s.id] = GfMatrix(fm, arr)

    relays = {}
    widths = {v: message_block_width(n, horizon, v) for v in n.nodes}
    for layer in range(1, horizon):
        restack = np.zeros((big, big), dtype=np.int64)
        for b in range(1, horizon + 1):
            restack[_block(q, b), bottom if b == layer else _block(q, b)] = eye
        for v in n.nodes:
            arr = restack.copy()
            if widths[v]:
                arr[top, _block(q, layer)] = eye
            enc = scheme.node_encoders.get((v, layer))
            if enc is not None:
                hist = enc.to_array()[:, widths[v]:]
                arr[top, q:q * layer] = hist[:, :q * (layer - 1)]
                arr[top, bottom] = hist[:, q * (layer - 1):]
            relays[stage_name(v, layer)] = GfMatrix(fm, arr)

    decoders = {}
    for s in n.sessions_sorted():
        dec = scheme.decoders[s.id].to_array()
        arr = np.zeros((s.width * horizon, big), dtype=np.int64)
        arr[:, q:q * horizon] = dec[:, :q * (horizon - 1)]
        arr[:, bottom] = dec[:, q * (horizon - 1):]
        decoders[s.id] = GfMatrix(fm, arr)

    return LinearCode(network=un, encoders=encoders, decoders=decoders, relays=relays)


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------


def _after_receive(p: int, m: np.ndarray, dependence: np.ndarray, q: int) -> np.ndarray:
    """m . [dependence | fresh]: a receive appends the fresh bottom band, the
    last q rows, as the newest history block, which m's last q columns read."""
    out = np.empty((m.shape[0], dependence.shape[1] + q), dtype=np.int64)
    out[:, :-q] = matmul_mod(p, (m, dependence))
    out[:, -q:] = m[:, -q:]
    return out


def project_code(code: LinearCode) -> UnlayeredLinearScheme:
    """Recover a time-indexed scheme from a layered code on an unfolded network.

    Works for codes in the lifted block form (reserved bottom band never
    written); for each node copy, the top band's linear dependence on the
    node's own messages and received history becomes the per-instant
    encoder, and decoder dependence is read the same way.  Raises
    :class:`BlockFormError` when the code writes into the reserved band or
    when a decoder output depends on messages sourced at the destination,
    neither of which a time-indexed scheme can express.
    """
    un = code.network
    if not isinstance(un, UnfoldedNetwork):
        raise CodeBindingError("project_code needs a code bound to an unfolded network")
    validate_code(un, code)
    n = un.original
    horizon = un.horizon
    q = n.q
    fm = n.field
    top = _block(q, 0)
    bottom = _block(q, horizon + 1)

    for sid, enc in code.encoders.items():
        if np.count_nonzero(enc.to_array()[bottom]):
            raise BlockFormError(f"encoder {sid} writes into the reserved bottom band")
    for node, relay in code.relays.items():
        if np.count_nonzero(relay.to_array()[bottom]):
            raise BlockFormError(f"relay {node!r} writes into the reserved bottom band")

    # dependence[v]: columns are [v's own messages, y_v[0], .., y_v[m-1]]
    dependence: dict[str, np.ndarray] = {}
    for v in n.nodes:
        arr = np.zeros((un.base.q, message_block_width(n, horizon, v)), dtype=np.int64)
        for sid, cols in _message_columns(n, horizon, v).items():
            arr[:, cols] = code.encoders[sid].to_array()
        dependence[v] = arr

    node_encoders: dict[tuple[str, int], GfMatrix] = {}
    for layer in range(horizon):
        for v in n.nodes:
            if layer:
                relay = code.relays[stage_name(v, layer)].to_array()
                dependence[v] = _after_receive(fm.p, relay, dependence[v], q)
            sent = dependence[v][top]
            if np.count_nonzero(sent):
                node_encoders[(v, layer)] = GfMatrix(fm, sent.copy())

    decoders = {}
    for s in n.sessions_sorted():
        width = message_block_width(n, horizon, s.destination)
        full = _after_receive(fm.p, code.decoders[s.id].to_array(), dependence[s.destination], q)
        if np.count_nonzero(full[:, :width]):
            raise BlockFormError(f"decoder {s.id} depends on messages sourced at the destination")
        decoders[s.id] = GfMatrix(fm, full[:, width:].copy())
    return UnlayeredLinearScheme(horizon=horizon, node_encoders=node_encoders, decoders=decoders)


# ---------------------------------------------------------------------------
# Direct time-domain simulation
# ---------------------------------------------------------------------------


def simulate_unlayered(
    n: Network, scheme: UnlayeredLinearScheme, messages: Sequence[GfMatrix]
) -> list[GfMatrix]:
    """Run the scheme instant by instant and return all reconstructions.

    A transmission at instant m reaches its neighbors within the same
    instant, but may only depend on receptions from instants before m, so
    cycles in the graph are harmless.  Messages are listed in session-id
    order with ``width * horizon`` rows each, over the network's field;
    extra columns batch several message tuples through one run.
    """
    validate_scheme(n, scheme)
    horizon = scheme.horizon
    q = n.q
    fm = n.field
    sessions = n.sessions_sorted()
    ncols = _check_messages(sessions, horizon, fm, messages, SchemeShapeError)
    by_id = {s.id: w.to_array() for s, w in zip(sessions, messages)}

    # known[v]: v's own messages, then y_v[0], .., y_v[horizon-1], filled in
    # as they arrive; the encoder for instant m reads the rows known by then
    widths = {v: message_block_width(n, horizon, v) for v in n.nodes}
    known = {}
    for v in n.nodes:
        arr = np.zeros((widths[v] + q * horizon, ncols), dtype=np.int64)
        for sid, rows in _message_columns(n, horizon, v).items():
            arr[rows] = by_id[sid]
        known[v] = arr

    for instant in range(horizon):
        transmitted = {}
        for v in n.nodes:
            enc = scheme.node_encoders.get((v, instant))
            if enc is not None:
                seen = known[v][:widths[v] + q * instant]
                transmitted[v] = matmul_mod(fm.p, (enc.to_array(), seen))
        for v in n.nodes:
            pairs = [
                (e.gain.to_array(), transmitted[e.src])
                for e in n._in_edges_by_node.get(v, ())
                if e.src in transmitted
            ]
            if pairs:
                start = widths[v] + q * instant
                known[v][start:start + q] = matmul_mod(fm.p, *pairs)

    outputs = []
    for s in sessions:
        history = known[s.destination][widths[s.destination]:]
        outputs.append(GfMatrix(fm, matmul_mod(fm.p, (scheme.decoders[s.id].to_array(), history))))
    return outputs
