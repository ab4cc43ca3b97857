"""Unfolding arbitrary networks over time into layered ones.

A network run for ``T`` time instants becomes a ``T+1``-stage layered
network: node ``v`` appears once per layer as ``v@0 .. v@T``, each
channel edge is repeated between consecutive layers with its gain
embedded into a larger space, and identity "memory" edges carry a node's
accumulated knowledge to its next copy.

The enlarged transmission vector of a copy has three bands:

* top ``q`` rows -- the symbols the node actually sends at that instant,
* a ``q*T`` state band -- received vectors stacked oldest-first, with the
  not-yet-used slots holding the per-instant message contributions a
  source still has to inject,
* a reserved bottom ``q`` band that stays zero on transmit; the embedded
  channel gains deliver the fresh superposition into it on receive.

:func:`lift_code` turns any time-indexed linear scheme into a layered
code on the unfolded network with identical end-to-end behavior, and
:func:`project_code` inverts the construction by reading the top band's
dependence on messages and received history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .coding import LinearCode, validate_code
from .errors import BlockFormError, CodeBindingError, SchemeShapeError
from .gf_linalg import MAX_DENSE_BYTES, GfMatrix, block_embed, identity, matmul_mod
from .network import (
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
    return sum(s.width * horizon for s in n.sessions_sourced_at(node))


def _message_offsets(n: Network, horizon: int, node: str) -> dict[int, int]:
    offsets = {}
    pos = 0
    for s in n.sessions_sourced_at(node):
        offsets[s.id] = pos
        pos += s.width * horizon
    return offsets


def validate_scheme(n: Network, scheme: UnlayeredLinearScheme) -> None:
    require_valid(n)
    horizon = scheme.horizon
    if horizon < 1:
        raise SchemeShapeError(f"horizon must be >= 1, got {horizon}")
    q = n.q
    node_set = set(n.nodes)
    for (node, m), enc in scheme.node_encoders.items():
        if node not in node_set:
            raise SchemeShapeError(f"encoder for unknown node {node!r}")
        if not 0 <= m < horizon:
            raise SchemeShapeError(f"encoder time {m} outside 0..{horizon - 1}")
        want = (q, message_block_width(n, horizon, node) + q * m)
        if enc.shape != want:
            raise SchemeShapeError(
                f"encoder ({node!r}, {m}) has shape {enc.shape}, expected {want}"
            )
        if enc.field != n.field:
            raise SchemeShapeError(f"encoder ({node!r}, {m}) uses a foreign modulus")
    session_ids = {s.id for s in n.sessions}
    if set(scheme.decoders) != session_ids:
        raise SchemeShapeError(
            f"decoder keys {sorted(scheme.decoders)} != session ids {sorted(session_ids)}"
        )
    for s in n.sessions:
        dec = scheme.decoders[s.id]
        want = (s.width * horizon, q * horizon)
        if dec.shape != want:
            raise SchemeShapeError(
                f"decoder {s.id} has shape {dec.shape}, expected {want}"
            )
        if dec.field != n.field:
            raise SchemeShapeError(f"decoder {s.id} uses a foreign modulus")


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
    ``(|E| + 1) * big**2`` int64 entries; ``ValueError`` is raised before
    anything is built when that exceeds ``MAX_DENSE_BYTES``.
    """
    require_valid(n)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    q = n.q
    big = q * (horizon + 2)
    gain_bytes = (len(n.edges) + 1) * big * big * 8
    if gain_bytes > MAX_DENSE_BYTES:
        raise ValueError(
            f"unfolding over {horizon} instants needs {gain_bytes} bytes of gains, "
            f"more than {MAX_DENSE_BYTES}"
        )
    mem_gain = identity(n.field, big)
    embedded = [block_embed(e.gain, q, horizon) for e in n.edges]
    nodes = []
    layer_map = {}
    for layer in range(horizon + 1):
        for v in n.nodes:
            name = stage_name(v, layer)
            nodes.append(name)
            layer_map[name] = layer
    edges: list[Edge] = []
    for layer in range(horizon):
        for v in n.nodes:
            edges.append(
                Edge(stage_name(v, layer), stage_name(v, layer + 1), mem_gain)
            )
        for e, gain in zip(n.edges, embedded):
            edges.append(Edge(stage_name(e.src, layer), stage_name(e.dst, layer + 1), gain))
    sessions = tuple(
        Session(s.id, stage_name(s.source, 0), stage_name(s.destination, horizon), s.width)
        for s in n.sessions
    )
    base = Network(
        field=n.field, q=big, nodes=tuple(nodes), edges=tuple(edges), sessions=sessions
    )
    return UnfoldedNetwork(
        base=base, layer_map=layer_map, horizon=horizon, original=n
    )


# ---------------------------------------------------------------------------
# Band bookkeeping
# ---------------------------------------------------------------------------


def _top_rows(q: int) -> slice:
    return slice(0, q)


def _state_rows(q: int, slot: int) -> slice:
    return slice(q * (slot + 1), q * (slot + 2))


def _bottom_rows(q: int, horizon: int) -> slice:
    return slice(q * (horizon + 1), q * (horizon + 2))


# ---------------------------------------------------------------------------
# Lifting
# ---------------------------------------------------------------------------


def lift_code(n: Network, scheme: UnlayeredLinearScheme) -> LinearCode:
    """Layered code on ``unfold(n, scheme.horizon)`` equivalent to the scheme.

    Each relay restacks its node's knowledge: the fresh bottom band is
    appended into the state band, the pending message contribution for
    this instant is consumed, and the scheme's encoder for the matching
    time instant produces the new top band.  Source encoders place both
    the instant-0 transmission and every pending later contribution;
    decoders read the completed history out of the state and bottom bands.
    """
    validate_scheme(n, scheme)
    horizon = scheme.horizon
    q = n.q
    big = q * (horizon + 2)
    fm = n.field
    un = unfold(n, horizon)
    top = _top_rows(q)
    bottom = _bottom_rows(q, horizon)

    def encoder_slice(node: str, instant: int, cols: slice) -> np.ndarray | None:
        enc = scheme.node_encoders.get((node, instant))
        if enc is None:
            return None
        return enc.to_array()[:, cols]

    encoders = {}
    for s in n.sessions_sorted():
        src = s.source
        mlen = s.width * horizon
        off = _message_offsets(n, horizon, src)[s.id]
        cols = slice(off, off + mlen)
        arr = np.zeros((big, mlen), dtype=np.int64)
        first = encoder_slice(src, 0, cols)
        if first is not None:
            arr[top] = first
        for instant in range(1, horizon):
            pending = encoder_slice(src, instant, cols)
            if pending is not None:
                arr[_state_rows(q, instant - 1)] = pending
        encoders[s.id] = GfMatrix(fm, arr)

    relays = {}
    for v in n.nodes:
        width = message_block_width(n, horizon, v)
        for layer in range(1, horizon):
            arr = np.zeros((big, big), dtype=np.int64)
            # restack: keep old history, append the fresh receive band
            for slot in range(horizon):
                src_rows = bottom if slot == layer - 1 else _state_rows(q, slot)
                arr[_state_rows(q, slot), src_rows] = np.eye(q, dtype=np.int64)
            # consume the pending message contribution for this instant
            if width:
                arr[top, _state_rows(q, layer - 1)] = np.eye(q, dtype=np.int64)
            enc = scheme.node_encoders.get((v, layer))
            if enc is not None:
                hist = enc.to_array()[:, width:]
                for h in range(layer):
                    block = hist[:, h * q:(h + 1) * q]
                    cols = bottom if h == layer - 1 else _state_rows(q, h)
                    arr[top, cols] = (arr[top, cols] + block) % fm.p
            relays[stage_name(v, layer)] = GfMatrix(fm, arr)

    decoders = {}
    for s in n.sessions_sorted():
        dec = scheme.decoders[s.id].to_array()
        mlen = s.width * horizon
        arr = np.zeros((mlen, big), dtype=np.int64)
        for instant in range(horizon):
            block = dec[:, instant * q:(instant + 1) * q]
            cols = bottom if instant == horizon - 1 else _state_rows(q, instant)
            arr[:, cols] = block
        decoders[s.id] = GfMatrix(fm, arr)

    return LinearCode(network=un, encoders=encoders, decoders=decoders, relays=relays)


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------


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
    big = q * (horizon + 2)
    fm = n.field
    bottom = _bottom_rows(q, horizon)

    for sid, enc in code.encoders.items():
        if enc.to_array()[bottom].any():
            raise BlockFormError(f"encoder {sid} writes into the reserved bottom band")
    for node, relay in code.relays.items():
        if relay.to_array()[bottom].any():
            raise BlockFormError(f"relay {node!r} writes into the reserved bottom band")

    # dependence[v]: columns are [v's own messages, y_v[0], .., y_v[m-1]]
    dependence: dict[str, np.ndarray] = {}
    for v in n.nodes:
        width = message_block_width(n, horizon, v)
        arr = np.zeros((big, width), dtype=np.int64)
        for s in n.sessions_sourced_at(v):
            off = _message_offsets(n, horizon, v)[s.id]
            mlen = s.width * horizon
            arr[:, off:off + mlen] = code.encoders[s.id].to_array()
        dependence[v] = arr

    node_encoders: dict[tuple[str, int], GfMatrix] = {}
    for v in n.nodes:
        enc0 = GfMatrix(fm, dependence[v][_top_rows(q)].copy())
        if not enc0.is_zero():
            node_encoders[(v, 0)] = enc0

    for layer in range(1, horizon + 1):
        for v in n.nodes:
            prev = dependence[v]
            received = np.zeros((big, prev.shape[1] + q), dtype=np.int64)
            received[:, : prev.shape[1]] = prev
            received[bottom, prev.shape[1]:] = np.eye(q, dtype=np.int64)
            if layer < horizon:
                relay = code.relays[stage_name(v, layer)].to_array()
                current = matmul_mod(fm.p, (relay, received))
                dependence[v] = current
                enc = GfMatrix(fm, current[_top_rows(q)].copy())
                if not enc.is_zero():
                    node_encoders[(v, layer)] = enc
            else:
                dependence[v] = received

    decoders = {}
    for s in n.sessions_sorted():
        dest = s.destination
        width = message_block_width(n, horizon, dest)
        full = matmul_mod(fm.p, (code.decoders[s.id].to_array(), dependence[dest]))
        if full[:, :width].any():
            raise BlockFormError(
                f"decoder {s.id} depends on messages sourced at the destination"
            )
        decoders[s.id] = GfMatrix(fm, full[:, width:].copy())

    return UnlayeredLinearScheme(
        horizon=horizon, node_encoders=node_encoders, decoders=decoders
    )


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
    order with ``width * horizon`` rows each; extra columns batch several
    message tuples through one run.
    """
    validate_scheme(n, scheme)
    horizon = scheme.horizon
    q = n.q
    fm = n.field
    sessions = n.sessions_sorted()
    if len(messages) != len(sessions):
        raise SchemeShapeError(
            f"expected {len(sessions)} message vectors, got {len(messages)}"
        )
    ncols = messages[0].cols if messages else 1
    for s, w in zip(sessions, messages):
        if w.rows != s.width * horizon or w.cols != ncols:
            raise SchemeShapeError(
                f"message for session {s.id} has shape {w.shape}, "
                f"expected ({s.width * horizon}, {ncols})"
            )
    by_id = {s.id: w.to_array() for s, w in zip(sessions, messages)}

    own_messages = {}
    for v in n.nodes:
        width = message_block_width(n, horizon, v)
        arr = np.zeros((width, ncols), dtype=np.int64)
        for s in n.sessions_sourced_at(v):
            off = _message_offsets(n, horizon, v)[s.id]
            arr[off:off + s.width * horizon] = by_id[s.id]
        own_messages[v] = arr

    history: dict[str, list[np.ndarray]] = {v: [] for v in n.nodes}
    for instant in range(horizon):
        transmitted = {}
        for v in n.nodes:
            enc = scheme.node_encoders.get((v, instant))
            if enc is None:
                transmitted[v] = np.zeros((q, ncols), dtype=np.int64)
            else:
                stacked = np.vstack([own_messages[v]] + history[v])
                transmitted[v] = matmul_mod(fm.p, (enc.to_array(), stacked))
        for v in n.nodes:
            pairs = [(e.gain.to_array(), transmitted[e.src]) for e in n.in_edges(v)]
            if pairs:
                history[v].append(matmul_mod(fm.p, *pairs))
            else:
                history[v].append(np.zeros((q, ncols), dtype=np.int64))

    outputs = []
    for s in sessions:
        stacked = np.vstack(history[s.destination])
        outputs.append(GfMatrix(fm, matmul_mod(fm.p, (scheme.decoders[s.id].to_array(), stacked))))
    return outputs
