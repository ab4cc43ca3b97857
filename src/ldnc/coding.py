"""Layered linear coding schemes and their end-to-end transfer behavior.

A :class:`LinearCode` holds one encoder per session, one decoder per
session, and one relay matrix per interior node of a layered network.
:func:`transfer_matrices` propagates per-message influence matrices layer
by layer and returns the full grid of source-to-destination transfer
maps; :func:`simulate` runs the same network on concrete message vectors;
:func:`is_solving` decides whether the code reconstructs every message
exactly.

:func:`simulate` and the code search share one batched propagation
kernel, :func:`_propagate`; :func:`transfer_matrices` keeps its own
per-session walk, independent of it, so that it can re-verify what the
kernel finds.  Both run on int64 residue arrays and take every product
from :func:`~ldnc.gf_linalg.matmul_mod`, which runs in int64 when the
unreduced sum fits it and on Python integers otherwise, so every result
is exact for every modulus.

Propagation is linear in the number of edges.  Summing gain/encoder
products over every source-destination path gives the same grid; that
formulation lives in the test suite as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import CodeBindingError
from .gf_linalg import GfMatrix, is_kronecker_delta_identity, matmul_mod
from .network import LayeredNetwork, Session


@dataclass(frozen=True)
class LinearCode:
    """Encoders, decoders and relay matrices bound to a layered network.

    ``encoders`` and ``decoders`` are keyed by session id and ``relays``
    by interior node.  The network's slot layout, the one that the code
    search enumerates, defines which matrices a code holds and their
    shapes; :func:`validate_code` checks a code against it.
    """

    network: LayeredNetwork
    encoders: Mapping[int, GfMatrix]
    decoders: Mapping[int, GfMatrix]
    relays: Mapping[str, GfMatrix]


@dataclass(frozen=True)
class TransferMap:
    """The n x n grid of transfer matrices between sessions.

    ``grid[l][k]`` maps message l into the reconstruction of message k, so
    it has shape (len_k, len_l); sessions are ordered by id.
    """

    sessions: tuple[Session, ...]
    grid: tuple[tuple[GfMatrix, ...], ...]

    def entry(self, source_id: int, dest_id: int) -> GfMatrix:
        ids = [s.id for s in self.sessions]
        return self.grid[ids.index(source_id)][ids.index(dest_id)]

    def is_identity_delta(self) -> bool:
        return is_kronecker_delta_identity(self.grid)


def validate_code(ln: LayeredNetwork, code: LinearCode) -> None:
    """Raise :class:`CodeBindingError` unless the code holds exactly one
    matrix per slot of the network's slot layout, found by the slot's kind
    and key, with the slot's shape and over the network's field."""
    if code.network is not ln and code.network != ln:
        raise CodeBindingError("code is bound to a different network")
    fm = ln.base.field
    roles = {"C": ("encoder", code.encoders), "F": ("relay", code.relays),
             "D": ("decoder", code.decoders)}
    for kind, key, rows, cols in ln._code_shapes:
        role, mats = roles[kind]
        mat = mats.get(key)
        if mat is None:
            raise CodeBindingError(f"{role} {key!r} is missing")
        if mat.shape != (rows, cols) or mat.field != fm:
            raise CodeBindingError(
                f"{role} {key!r} is {mat.shape} over {mat.field}, expected {(rows, cols)} over {fm}"
            )
    if sum(len(mats) for _, mats in roles.values()) > len(ln._code_shapes):
        slots = {(kind, key) for kind, key, _, _ in ln._code_shapes}
        role, key = next(
            (role, key) for kind, (role, mats) in roles.items() for key in mats
            if (kind, key) not in slots
        )
        raise CodeBindingError(f"{role} {key!r} has no slot in the network")


def _propagate(
    ln: LayeredNetwork,
    sent: Mapping[str, np.ndarray],
    relays: Mapping[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """Push layer-0 transmissions through the network to the final layer.

    ``sent`` maps layer-0 nodes to (batch, q, cols) transmissions and
    ``relays`` maps every relay node to a (batch, q, q) stack or one
    (q, q) matrix shared by the batch; all arrays hold int64 residues.
    Each node sums its gain-weighted inputs in one
    :func:`~ldnc.gf_linalg.matmul_mod` call; nodes nothing reaches are
    left out of the returned final-layer arrivals.
    """
    p = ln.base.field.p
    transmitted = sent
    arrived: dict[str, np.ndarray] = {}
    for layer in range(1, ln.horizon + 1):
        arrived = {}
        for v in ln.nodes_at(layer):
            pairs = [
                (e.gain.to_array(), transmitted[e.src])
                for e in ln.base.in_edges(v)
                if e.src in transmitted
            ]
            if pairs:
                arrived[v] = matmul_mod(p, *pairs)
        if layer < ln.horizon:
            transmitted = {v: matmul_mod(p, (relays[v], y)) for v, y in arrived.items()}
    return arrived


def transfer_matrices(ln: LayeredNetwork, code: LinearCode) -> TransferMap:
    """Grid of end-to-end transfer matrices, one per session pair.

    Influence matrices of each message are pushed through the layers:
    session encoders seed layer 0, each node sums its gain-weighted
    inputs, relays apply their matrix, and decoders read off the grid at
    the final layer.  Pairs with no connecting path come out all-zero.
    """
    validate_code(ln, code)
    sessions = ln.base.sessions_sorted()
    fm = ln.base.field
    p = fm.p

    grid_rows: list[tuple[GfMatrix, ...]] = []
    for src_sess in sessions:
        # influence of message src_sess on each node's transmission, and on
        # each final-layer node's arrival once the walk is done
        influence = {src_sess.source: code.encoders[src_sess.id].to_array()}
        for layer in range(1, ln.horizon + 1):
            sent, influence = influence, {}
            for node in ln.nodes_at(layer):
                pairs = [
                    (e.gain.to_array(), sent[e.src])
                    for e in ln.base.in_edges(node)
                    if e.src in sent
                ]
                if pairs:
                    y = matmul_mod(p, *pairs)
                    if layer < ln.horizon:
                        y = matmul_mod(p, (code.relays[node].to_array(), y))
                    influence[node] = y
        # a destination nothing reaches decodes a zero arrival
        nothing = np.zeros((ln.base.q, ln.message_length(src_sess)), dtype=np.int64)
        row = []
        for dst_sess in sessions:
            y = influence.get(dst_sess.destination, nothing)
            row.append(GfMatrix(fm, matmul_mod(p, (code.decoders[dst_sess.id].to_array(), y))))
        grid_rows.append(tuple(row))
    return TransferMap(sessions=sessions, grid=tuple(grid_rows))


def simulate(
    ln: LayeredNetwork, code: LinearCode, messages: Sequence[GfMatrix]
) -> list[GfMatrix]:
    """Run the network on concrete messages and return the reconstructions.

    ``messages[i]`` belongs to the i-th session in id order and must have
    ``width * horizon`` rows; multiple columns are carried through in one
    pass, which batches a whole message ensemble.
    """
    validate_code(ln, code)
    sessions = ln.base.sessions_sorted()
    if len(messages) != len(sessions):
        raise CodeBindingError(
            f"expected {len(sessions)} message vectors, got {len(messages)}"
        )
    ncols = messages[0].cols if messages else 1
    for s, w in zip(sessions, messages):
        if w.rows != ln.message_length(s) or w.cols != ncols:
            raise CodeBindingError(
                f"message for session {s.id} has shape {w.shape}, "
                f"expected ({ln.message_length(s)}, {ncols})"
            )
    fm = ln.base.field
    by_id = {s.id: w.to_array() for s, w in zip(sessions, messages)}
    sent = {}
    for node in ln.nodes_at(0):
        pairs = [
            (code.encoders[s.id].to_array(), by_id[s.id])
            for s in ln.base.sessions_sourced_at(node)
        ]
        if pairs:
            sent[node] = matmul_mod(fm.p, *pairs)[np.newaxis]
    relays = {node: m.to_array() for node, m in code.relays.items()}
    arrived = _propagate(ln, sent, relays)
    out = []
    for s in sessions:
        y = arrived.get(s.destination)
        rec = np.zeros((ln.message_length(s), ncols), dtype=np.int64)
        if y is not None:
            rec = matmul_mod(fm.p, (code.decoders[s.id].to_array(), y[0]))
        out.append(GfMatrix(fm, rec))
    return out


def is_solving(ln: LayeredNetwork, code: LinearCode) -> bool:
    """True iff every reconstruction equals its message for all inputs."""
    return transfer_matrices(ln, code).is_identity_delta()
