"""Layered linear coding schemes and their end-to-end transfer behavior.

A :class:`LinearCode` holds one encoder per session, one decoder per
session, and one relay matrix per interior node of a layered network.
:func:`transfer_matrices` propagates per-message influence matrices layer
by layer and returns the full grid of source-to-destination transfer
maps; :func:`simulate` runs the same network on concrete message vectors;
:func:`is_solving` decides whether the code reconstructs every message
exactly.

:func:`simulate` and both code searches share one batched propagation
kernel, :func:`_arrivals`: every session is the column block of its
message in one shared transmission, so one pass gives destination k its
arrival Y_k = [Y_k1 ... Y_kn], all zero when nothing reaches it, and
:func:`simulate` returns D_k . Y_k . W for the stacked messages W.  The
independent :func:`transfer_matrices` walks one session at a time, so
that it can re-verify what the kernel finds.  Both run on int64 residue
arrays and take every product from :func:`~ldnc.gf_linalg.matmul_mod`,
which sums in int64 and reduces between chunks of products before a sum
could pass it, so every result is exact for every modulus.

Propagation is linear in the number of edges.  Summing gain/encoder
products over every source-destination path gives the same grid; that
formulation lives in the test suite as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping, Sequence

import numpy as np

from .errors import CodeBindingError
from .gf_linalg import FieldModulus, GfMatrix, is_kronecker_delta_identity, matmul_mod
from .network import LayeredNetwork, Session


@dataclass(frozen=True)
class LinearCode:
    """Encoders, decoders and relay matrices bound to a layered network.

    ``encoders`` and ``decoders`` are keyed by session id and ``relays``
    by interior node.  The network's code layout, the one that the code
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


def _check_matrices(what: str, given: Mapping, shapes: Mapping, field: FieldModulus,
                    error: type[Exception], complete: bool = True) -> None:
    """One check for every matrix set a caller hands in (code, scheme, message batch): raise
    ``error``, naming ``what`` and the key, unless each matrix in ``given`` is over ``field``
    with the shape ``shapes`` holds under its key, and, if ``complete``, every key has one."""
    for key, mat in given.items():
        want = shapes.get(key)
        if want is None:
            raise error(f"{what} {key!r} has no slot in the network")
        if mat.shape != want:
            raise error(f"{what} {key!r} has shape {mat.shape}, expected {want}")
        if mat.field is not field and mat.field != field:
            raise error(f"{what} {key!r} is over {mat.field}, expected {field}")
    if complete and len(given) < len(shapes):
        key = next(key for key in shapes if key not in given)
        raise error(f"{what} {key!r} is missing")


def validate_code(ln: LayeredNetwork, code: LinearCode) -> None:
    """Raise :class:`CodeBindingError` unless the code holds exactly one
    matrix per entry of the network's code layout, found by its kind and
    key, with the layout's shape and over the network's field."""
    if code.network is not ln and code.network != ln:
        raise CodeBindingError("code is bound to a different network")
    shapes = ln._code_layout[0]
    for what, kind, mats in (("encoder", "C", code.encoders), ("relay", "F", code.relays),
                             ("decoder", "D", code.decoders)):
        _check_matrices(what, mats, shapes[kind], ln.base.field, CodeBindingError)


def _check_messages(
    sessions: Sequence[Session], horizon: int, field: FieldModulus,
    messages: Sequence[GfMatrix], error: type[Exception],
) -> int:
    """Raise ``error`` unless ``messages`` holds one matrix per session, in
    the order of ``sessions``, with ``width * horizon`` rows, one column
    count shared by all and over ``field``; return that count (1 if none)."""
    if len(messages) != len(sessions):
        raise error(f"expected {len(sessions)} message vectors, got {len(messages)}")
    ncols = messages[0].cols if messages else 1
    _check_matrices("message for session", {s.id: w for s, w in zip(sessions, messages)},
                    {s.id: (s.width * horizon, ncols) for s in sessions}, field, error)
    return ncols


def _arrivals(
    ln: LayeredNetwork,
    encoders: Mapping[int, np.ndarray],
    relays: Mapping[str, np.ndarray],
    count: int,
):
    """Yield (session, Y_k, lo, hi) for every session, in id order.

    ``encoders`` maps session ids to (count, q, len_k) stacks and
    ``relays`` maps every relay node to a (count, q, q) stack; either may
    be one matrix shared by the batch instead, and all hold int64
    residues.  Session k's encoder fills columns lo..hi of its source's
    transmission, so one pass through the layers gives destination k the
    (count, q, sum of len_l) arrival Y_k = [Y_k1 ... Y_kn], all zero when
    nothing reaches it.  Each node sums its gain-weighted inputs in one
    :func:`~ldnc.gf_linalg.matmul_mod` call, and each relay applies its
    matrix in another.
    """
    p = ln.base.field.p
    sessions = ln.base.sessions_sorted()
    cuts = list(accumulate((ln.message_length(s) for s in sessions), initial=0))
    shape = (count, ln.base.q, cuts[-1])
    transmitted = {s.source: np.zeros(shape, dtype=np.int64) for s in sessions}
    for s, lo, hi in zip(sessions, cuts, cuts[1:]):
        transmitted[s.source][:, :, lo:hi] = encoders[s.id]
    arrived: dict[str, np.ndarray] = {}
    for layer in range(1, ln.horizon + 1):
        arrived = {}
        for v in ln._nodes_by_layer.get(layer, ()):
            pairs = [
                (e.gain.to_array(), transmitted[e.src])
                for e in ln.base._in_edges_by_node.get(v, ())
                if e.src in transmitted
            ]
            if pairs:
                arrived[v] = matmul_mod(p, *pairs)
        if layer < ln.horizon:
            transmitted = {v: matmul_mod(p, (relays[v], y)) for v, y in arrived.items()}
    nothing = np.zeros(shape, dtype=np.int64)
    for s, lo, hi in zip(sessions, cuts, cuts[1:]):
        yield s, arrived.get(s.destination, nothing), lo, hi


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
            for node in ln._nodes_by_layer.get(layer, ()):
                pairs = [
                    (e.gain.to_array(), sent[e.src])
                    for e in ln.base._in_edges_by_node.get(node, ())
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

    ``messages[i]`` belongs to the i-th session in id order, must have
    ``width * horizon`` rows and must be over the network's field;
    multiple columns are carried through in one pass, which batches a
    whole message ensemble.
    """
    validate_code(ln, code)
    fm = ln.base.field
    _check_messages(ln.base.sessions_sorted(), ln.horizon, fm, messages, CodeBindingError)
    p = fm.p
    # W: the messages stacked in the column order of every arrival Y_k
    w = np.concatenate([m.to_array() for m in messages]) if messages else None
    encoders = {k: m.to_array() for k, m in code.encoders.items()}
    relays = {v: m.to_array() for v, m in code.relays.items()}
    return [
        GfMatrix(fm, matmul_mod(p, (code.decoders[s.id].to_array(), matmul_mod(p, (y[0], w)))))
        for s, y, _, _ in _arrivals(ln, encoders, relays, 1)
    ]


def is_solving(ln: LayeredNetwork, code: LinearCode) -> bool:
    """True iff every reconstruction equals its message for all inputs."""
    return transfer_matrices(ln, code).is_identity_delta()
