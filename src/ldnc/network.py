"""Network model: directed graph, per-edge gain matrices, unicast sessions.

A :class:`Network` is immutable once built and may hold structurally
invalid data; :func:`validate` reports every violation as data rather
than raising, and the operations that need a valid network call
:func:`require_valid` first.  :func:`detect_layers` upgrades a network
to a :class:`LayeredNetwork` when a consistent layer assignment exists,
and :func:`reciprocal` builds the reversed network with transposed
gains and swapped session roles.  ``Network._received`` is the model's
one receive step, y_v = sum of G_uv . x_u, for every walk of a network.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Mapping

from .errors import InvalidNetworkError, NotLayeredError
from .gf_linalg import FieldModulus, GfMatrix, matmul_mod


@dataclass(frozen=True)
class Session:
    """One unicast flow: message k travels from ``source`` to ``destination``.

    ``width`` is the number of fresh message symbols per time instant; a
    scheme over horizon T carries a message of ``width * T`` symbols.
    """

    id: int
    source: str
    destination: str
    width: int


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    gain: GfMatrix


def _grouped(items: Iterable, key) -> dict:
    """The items as tuples keyed by ``key(item)``, in their given order."""
    by_key: dict = {}
    for x in items:
        by_key.setdefault(key(x), []).append(x)
    return {k: tuple(xs) for k, xs in by_key.items()}


@dataclass(frozen=True, eq=False)
class Network:
    field: FieldModulus
    q: int
    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    sessions: tuple[Session, ...]

    # Structural equality: independent of node/edge/session listing order.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        mine, theirs = self.edge_map(), other.edge_map()
        # one comparison per distinct pair of gain objects: the copies of an
        # edge in an unfolding share one gain
        gain_pairs = {(id(g), id(theirs.get(k))): (g, theirs.get(k)) for k, g in mine.items()}
        return (
            self.field == other.field
            and self.q == other.q
            and set(self.nodes) == set(other.nodes)
            and self.sessions_sorted() == other.sessions_sorted()
            and mine.keys() == theirs.keys()
            and all(a == b for a, b in gain_pairs.values())
        )

    def edge_map(self) -> dict[tuple[str, str], GfMatrix]:
        return {(e.src, e.dst): e.gain for e in self.edges}

    @cached_property
    def _in_edges_by_node(self) -> dict[str, tuple[Edge, ...]]:
        return _grouped(self.edges, lambda e: e.dst)

    @cached_property
    def _out_edges_by_node(self) -> dict[str, tuple[Edge, ...]]:
        return _grouped(self.edges, lambda e: e.src)

    @cached_property
    def _sessions_by_id(self) -> tuple[Session, ...]:
        return tuple(sorted(self.sessions, key=lambda s: s.id))

    @cached_property
    def _sessions_by_source(self) -> dict[str, tuple[Session, ...]]:
        return _grouped(self.sessions_sorted(), lambda s: s.source)

    @cached_property
    def _message_layout(self) -> dict[str, tuple[dict[int, tuple[int, int]], int]]:
        """For each source node: each session's (offset, width) per instant in
        the node's own message block, in session-id order, and the widths' sum."""
        layout = {}
        for v, sessions in self._sessions_by_source.items():
            cuts = list(accumulate((s.width for s in sessions), initial=0))
            layout[v] = ({s.id: (lo, s.width) for s, lo in zip(sessions, cuts)}, cuts[-1])
        return layout

    @cached_property
    def _report(self) -> ValidationReport:
        """:func:`validate`'s report, computed once: a network is immutable."""
        return validate(self)

    @cached_property
    def _unreachable(self) -> bool:
        """True when no path of nonzero gains joins a session of nonzero width to d_k."""
        for s in self.sessions:
            # depth first, one out-edge at a time, so that few gains are tested
            reached, stack = {s.source}, [iter(self._out_edges_by_node.get(s.source, ()))]
            while stack and s.destination not in reached:
                e = next(stack[-1], None)
                if e is None:
                    stack.pop()
                elif e.dst not in reached and not e.gain.is_zero():
                    reached.add(e.dst)
                    stack.append(iter(self._out_edges_by_node.get(e.dst, ())))
            if s.width and s.destination not in reached:
                return True
        return False

    def _received(self, nodes: Iterable[str], sent: Mapping) -> dict:
        """The receive step: {v: the sum of G_uv . x_u over v's in-edges whose
        sender u is in ``sent``} for each of ``nodes``, in one
        :func:`~ldnc.gf_linalg.matmul_mod` call per node; a node that hears no
        sender is left out.  ``sent`` holds int64 residue arrays or stacks."""
        p, in_edges = self.field.p, self._in_edges_by_node
        received = {}
        for v in nodes:
            pairs = [(e.gain.to_array(), sent[e.src]) for e in in_edges.get(v, ()) if e.src in sent]
            if pairs:
                received[v] = matmul_mod(p, *pairs)
        return received

    def in_edges(self, node: str) -> list[Edge]:
        return list(self._in_edges_by_node.get(node, ()))

    def out_edges(self, node: str) -> list[Edge]:
        return list(self._out_edges_by_node.get(node, ()))

    def sessions_sorted(self) -> tuple[Session, ...]:
        """The sessions in id order, one tuple built once: a network never changes."""
        return self._sessions_by_id

    def session(self, session_id: int) -> Session:
        for s in self.sessions:
            if s.id == session_id:
                return s
        raise KeyError(f"no session with id {session_id}")

    def sessions_sourced_at(self, node: str) -> tuple[Session, ...]:
        return self._sessions_by_source.get(node, ())

    def sessions_decoded_at(self, node: str) -> tuple[Session, ...]:
        return tuple(s for s in self.sessions_sorted() if s.destination == node)


def network(
    p: int,
    q: int,
    nodes: Iterable[str],
    edges: Iterable[tuple[str, str, GfMatrix]],
    sessions: Iterable[tuple[int, str, str, int] | Session],
) -> Network:
    """Convenience factory accepting loose tuples."""
    fm = FieldModulus(p)
    sess = tuple(
        s if isinstance(s, Session) else Session(*s) for s in sessions
    )
    return Network(
        field=fm,
        q=q,
        nodes=tuple(nodes),
        edges=tuple(Edge(src, dst, gain) for src, dst, gain in edges),
        sessions=sess,
    )


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(str(v) for v in self.violations)


def validate(n: Network) -> ValidationReport:
    """Collect every structural violation; an empty report means valid."""
    out: list[Violation] = []
    node_set = set(n.nodes)
    if len(node_set) != len(n.nodes):
        out.append(Violation("duplicate-node", "node list contains repeats"))
    if n.q < 1:
        out.append(Violation("vector-length", f"q must be >= 1, got {n.q}"))

    seen_pairs: set[tuple[str, str]] = set()
    for e in n.edges:
        if e.src == e.dst:
            out.append(Violation("self-loop", f"edge {e.src} -> {e.dst}"))
        if (e.src, e.dst) in seen_pairs:
            out.append(
                Violation("duplicate-edge", f"more than one edge {e.src} -> {e.dst}")
            )
        seen_pairs.add((e.src, e.dst))
        for endpoint in (e.src, e.dst):
            if endpoint not in node_set:
                out.append(
                    Violation("unknown-node", f"edge endpoint {endpoint!r} not declared")
                )
        if e.gain.shape != (n.q, n.q):
            out.append(
                Violation(
                    "gain-shape",
                    f"edge {e.src} -> {e.dst} gain is {e.gain.shape}, expected ({n.q}, {n.q})",
                )
            )
        if e.gain.field != n.field:
            out.append(
                Violation(
                    "gain-modulus",
                    f"edge {e.src} -> {e.dst} gain over GF({e.gain.field.p}), network uses GF({n.field.p})",
                )
            )

    ids = [s.id for s in n.sessions]
    if len(set(ids)) != len(ids):
        out.append(Violation("session-id", "session ids are not unique"))
    elif ids and sorted(ids) != list(range(1, len(ids) + 1)):
        out.append(Violation("session-id", "session ids must be 1..n"))
    for s in n.sessions:
        if s.source == s.destination:
            out.append(
                Violation("session-endpoints", f"session {s.id} has source == destination")
            )
        for endpoint in (s.source, s.destination):
            if endpoint not in node_set:
                out.append(
                    Violation(
                        "session-endpoints",
                        f"session {s.id} endpoint {endpoint!r} not declared",
                    )
                )
        if s.width < 0:
            out.append(Violation("session-width", f"session {s.id} width is negative"))
    return ValidationReport(tuple(out))


def require_valid(n: Network) -> None:
    if not n._report.ok:
        raise InvalidNetworkError(n._report)


# ---------------------------------------------------------------------------
# Reciprocal
# ---------------------------------------------------------------------------


def reciprocal(n: Network) -> Network:
    """Reverse every edge, transpose every gain, swap session roles.

    Applying the construction twice returns a network structurally equal
    to the original.  Edges that share a gain object, as an unfolding's
    copies of an edge do, share its transpose.
    """
    require_valid(n)
    transposed = {key: g.T for key, g in {id(e.gain): e.gain for e in n.edges}.items()}
    return Network(
        field=n.field,
        q=n.q,
        nodes=n.nodes,
        edges=tuple(Edge(e.dst, e.src, transposed[id(e.gain)]) for e in n.edges),
        sessions=tuple(
            Session(s.id, s.destination, s.source, s.width) for s in n.sessions
        ),
    )


# ---------------------------------------------------------------------------
# Layer detection
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LayeredNetwork:
    """A network plus a validated layer assignment.

    Layers run 0..horizon with every session source at layer 0 and every
    session destination at layer ``horizon``; edges only join consecutive
    layers.
    """

    base: Network
    layer_map: Mapping[str, int]
    horizon: int

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LayeredNetwork):
            return NotImplemented
        return (
            self.horizon == other.horizon
            and self.layer_map == other.layer_map
            and self.base == other.base
        )

    def layer_of(self, node: str) -> int:
        return self.layer_map[node]

    @cached_property
    def _nodes_by_layer(self) -> dict[int, tuple[str, ...]]:
        return _grouped(sorted(self.base.nodes), self.layer_map.__getitem__)

    @cached_property
    def _relay_nodes(self) -> tuple[str, ...]:
        return tuple(
            sorted(v for v in self.base.nodes if 0 < self.layer_map[v] < self.horizon)
        )

    @cached_property
    def _code_layout(self) -> tuple[dict[str, dict[object, tuple[int, int]]], int, int]:
        """The one description of a code: the (rows, cols) shape of each
        matrix, by kind and then key, in digit order (encoders ``C`` by
        session id, relays ``F`` by node, decoders ``D`` by session id,
        each row-major), with the digit counts of the (encoder, relay)
        pairs and of the whole code."""
        q = self.base.q
        lengths = {s.id: self.message_length(s) for s in self.base.sessions_sorted()}
        shapes = {
            "C": {k: (q, w) for k, w in lengths.items()},
            "F": dict.fromkeys(self._relay_nodes, (q, q)),
            "D": {k: (w, q) for k, w in lengths.items()},
        }
        pairs = q * (sum(lengths.values()) + q * len(self._relay_nodes))
        return shapes, pairs, pairs + q * sum(lengths.values())

    def nodes_at(self, layer: int) -> list[str]:
        return list(self._nodes_by_layer.get(layer, ()))

    def relay_nodes(self) -> list[str]:
        """All nodes at interior layers 1..horizon-1, sorted by id."""
        return list(self._relay_nodes)

    def message_length(self, session: Session) -> int:
        return session.width * self.horizon


def _propagate_labels(n: Network, seeds: Iterable[str]) -> dict[str, int]:
    """Label everything connected to ``seeds`` (all at layer 0) by a walk
    over the undirected graph, +1 along an edge and -1 against it."""
    labels = dict.fromkeys(seeds, 0)
    stack = list(labels)
    while stack:
        v = stack.pop()
        for e in n._out_edges_by_node.get(v, ()) + n._in_edges_by_node.get(v, ()):
            w, want = (e.dst, labels[v] + 1) if e.src == v else (e.src, labels[v] - 1)
            if w not in labels:
                labels[w] = want
                stack.append(w)
            elif labels[w] != want:
                raise NotLayeredError(
                    f"edge {e.src!r} -> {e.dst!r} joins layers {labels[e.src]} and {labels[e.dst]}"
                )
    return labels


def detect_layers(n: Network) -> LayeredNetwork:
    """Compute the layer assignment with all sources at layer 0.

    One walk labels every component that holds a session source, with
    all sources at layer 0; each remaining component gets labels relative
    to its smallest destination and is pinned to the final layer.  A walk
    checks every edge from both of its ends, so edges join consecutive
    layers once it succeeds.  When no destination is reachable from a
    source the final layer is the smallest feasible one, which keeps
    detection symmetric between a network and its reciprocal.  Raises
    :class:`NotLayeredError` when no consistent assignment exists: an
    edge inside a layer or skipping one, a cycle, a destination off the
    final layer, a component with neither source nor destination, or a
    destination that also relays (its successor lies past the final
    layer).
    """
    require_valid(n)
    if not n.sessions:
        raise NotLayeredError("a layered network needs at least one session")

    sources = {s.source for s in n.sessions}
    destinations = {s.destination for s in n.sessions}
    if sources & destinations:
        both = sorted(sources & destinations)[0]
        raise NotLayeredError(
            f"node {both!r} is both a session source and a session destination"
        )

    labels = _propagate_labels(n, (s.source for s in n.sessions))
    walked = set(labels)
    deferred: list[dict[str, int]] = []
    for d in sorted(destinations):
        if d in walked:
            continue
        # labels relative to this component's smallest destination, pinned later
        relative = _propagate_labels(n, (d,))
        if max(relative.values()) > 0:
            offender = max(relative, key=relative.__getitem__)
            raise NotLayeredError(f"node {offender!r} sits past the final layer")
        deferred.append(relative)
        walked.update(relative)
    stray = [v for v in n.nodes if v not in walked]
    if stray:
        raise NotLayeredError(
            f"component containing {min(stray)!r} holds no source or destination"
        )

    anchored_dest_layers = [labels[v] for v in destinations if v in labels]
    if anchored_dest_layers:
        horizon = max(anchored_dest_layers)
    else:
        depth = max(labels.values())
        reach = max((-min(rel.values()) for rel in deferred), default=0)
        horizon = max(depth, reach, 1)
    for rel in deferred:
        for v, r in rel.items():
            labels[v] = horizon + r

    if min(labels.values()) < 0:
        offender = min(labels, key=labels.__getitem__)
        raise NotLayeredError(f"node {offender!r} would sit before layer 0")
    if max(labels.values()) > horizon:
        offender = max(labels, key=labels.__getitem__)
        raise NotLayeredError(
            f"node {offender!r} sits at layer {labels[offender]}, past the final layer {horizon}"
        )
    for s in n.sessions:
        if labels[s.destination] != horizon:
            raise NotLayeredError(f"session {s.id} destination is not at the final layer")

    return LayeredNetwork(base=n, layer_map=labels, horizon=horizon)


# The live derived networks: unfoldings by (id(n), horizon) and reciprocals
# by (id(ln), None).  Values are weak, so a derived network lives exactly as
# long as its caller keeps it; each holds the object whose id keys it, so a
# live entry's id cannot have been recycled.
_DERIVED: weakref.WeakValueDictionary[tuple[int, int | None], LayeredNetwork] = (
    weakref.WeakValueDictionary()
)


def reciprocal_layered(ln: LayeredNetwork) -> LayeredNetwork:
    """Reciprocal of a layered network, with layer m mapped to horizon - m.

    The reciprocal holds ``ln``, and is the answer for it while the caller
    keeps it; the reciprocal of that reciprocal is ``ln`` itself.
    """
    hit = ln.__dict__.get("_reciprocal_of") or _DERIVED.get((id(ln), None))
    if hit is not None:
        return hit
    flipped = {v: ln.horizon - m for v, m in ln.layer_map.items()}
    rln = LayeredNetwork(base=reciprocal(ln.base), layer_map=flipped, horizon=ln.horizon)
    # stored as cached_property stores its values: not a field, so equality,
    # repr and the constructor are unchanged
    rln.__dict__["_reciprocal_of"] = ln
    _DERIVED[id(ln), None] = rln
    return rln
