"""Seeded input generators for the benchmark workloads.

This module is plain Python and never imports ldnc: it writes the ldnc
text formats itself, so the program under test receives only generated
inputs.  Every generator takes a ``random.Random`` and is deterministic
given it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


def rand_matrix(rng: random.Random, p: int, rows: int, cols: int) -> list[list[int]]:
    return [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over GF(p), by elimination here so that generation never calls ldnc."""
    a = [list(r) for r in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        pivot = next((r for r in range(rank, len(a)) if a[r][col] % p), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][col], p - 2, p)
        a[rank] = [x * inv % p for x in a[rank]]
        for r in range(len(a)):
            if r != rank and a[r][col] % p:
                f = a[r][col]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def rand_invertible(rng: random.Random, p: int, q: int) -> list[list[int]]:
    while True:
        m = rand_matrix(rng, p, q, q)
        if rank_mod_p(m, p) == q:
            return m


def matrix_literal(rows: list[list[int]]) -> str:
    return "[" + ",".join("[" + ",".join(map(str, r)) + "]" for r in rows) + "]"


@dataclass
class NetSpec:
    """A network as the benchmark generated it.

    ``layers`` is set for layered networks (sources in ``layers[0]``,
    destinations in ``layers[-1]``) and is None for arbitrary ones.
    """

    p: int
    q: int
    nodes: list[str]
    edges: list[tuple[str, str, list[list[int]]]]
    sessions: list[tuple[int, str, str, int]]  # id, source, destination, width
    layers: list[list[str]] | None = None

    def text(self) -> str:
        lines = [f"p: {self.p}", f"q: {self.q}", "nodes: " + " ".join(self.nodes), "edges:"]
        for u, v, gain in self.edges:
            lines.append(f"  {u} -> {v} gain {matrix_literal(gain)}")
        lines.append("sessions:")
        for sid, src, dst, width in self.sessions:
            lines.append(f"  {sid}: {src} -> {dst} width {width}")
        return "\n".join(lines) + "\n"

    @property
    def horizon(self) -> int:
        return len(self.layers) - 1

    def relay_nodes(self) -> list[str]:
        return sorted(v for layer in self.layers[1:-1] for v in layer)

    def free_entries(self) -> int:
        """Free code entries: encoders, relays and decoders (layered only)."""
        widths = sum(w for _, _, _, w in self.sessions)
        return 2 * self.q * self.horizon * widths + self.q * self.q * len(self.relay_nodes())

    def decoder_entries(self) -> int:
        return sum(self.q * w * self.horizon for _, _, _, w in self.sessions)


def layered(
    rng: random.Random,
    p: int,
    q: int,
    sizes: list[int],
    n_sessions: int,
    invertible: bool = False,
) -> NetSpec:
    """A layered network with ``sizes[m]`` nodes at layer m and random gains.

    Every node feeds every node of the next layer, so the edge count (and
    the search kernel's work per candidate) is fixed by the sizes; the
    seed picks the gains and the session endpoints.  ``invertible`` gains
    keep every edge alive, so whether a code exists depends on the shape
    more than on the seed.  Session k runs from a layer-0 node to a
    final-layer node, with width 1.
    """
    gain = rand_invertible if invertible else (lambda rng, p, q: rand_matrix(rng, p, q, q))
    layers = [[f"L{m}n{i}" for i in range(n)] for m, n in enumerate(sizes)]
    edges = [(u, v, gain(rng, p, q))
             for m in range(1, len(sizes)) for v in layers[m] for u in layers[m - 1]]
    sources = rng.sample(layers[0], min(n_sessions, len(layers[0])))
    dests = rng.sample(layers[-1], min(n_sessions, len(layers[-1])))
    sessions = [(k + 1, sources[k % len(sources)], dests[k % len(dests)], 1)
                for k in range(n_sessions)]
    return NetSpec(p, q, [v for layer in layers for v in layer], edges, sessions, layers)


def arbitrary(rng: random.Random, p: int, q: int, n_nodes: int, chords: int,
              dual_role: bool) -> NetSpec:
    """A network with cycles and chords, not layered.

    Nodes form a directed ring (a cycle) plus ``chords`` random extra
    edges, so the edge count is fixed by the arguments.  With
    ``dual_role`` a second session starts at the first session's
    destination, so one node both decodes and sources.
    """
    nodes = [f"v{i}" for i in range(n_nodes)]
    ring = [(nodes[i], nodes[(i + 1) % n_nodes]) for i in range(n_nodes)]
    others = [(u, v) for u in nodes for v in nodes if u != v and (u, v) not in ring]
    pairs = sorted(ring + rng.sample(others, chords))
    edges = [(u, v, rand_matrix(rng, p, q, q)) for u, v in pairs]
    a, b, c = rng.sample(nodes, 3)
    sessions = [(1, a, b, 1)]
    if dual_role:
        sessions.append((2, b, c, 1))
    return NetSpec(p, q, nodes, edges, sessions)


@dataclass
class SchemeSpec:
    """A time-indexed linear scheme for an arbitrary network, as entry lists.

    ``encoders[(v, m)]`` has q rows and (messages sourced at v) + q*m
    columns; ``decoders[k]`` is (width*T) x (q*T).
    """

    horizon: int
    encoders: dict[tuple[str, int], list[list[int]]] = field(default_factory=dict)
    decoders: dict[int, list[list[int]]] = field(default_factory=dict)


def message_block(net: NetSpec, horizon: int, node: str) -> int:
    return sum(w * horizon for _, src, _, w in net.sessions if src == node)


def scheme(rng: random.Random, net: NetSpec, horizon: int) -> SchemeSpec:
    """A random scheme in which each (node, instant) encoder exists with probability 0.8."""
    out = SchemeSpec(horizon)
    for v in net.nodes:
        width = message_block(net, horizon, v)
        for m in range(horizon):
            if rng.random() < 0.8:
                out.encoders[(v, m)] = rand_matrix(rng, net.p, net.q, width + net.q * m)
    for sid, _, _, w in net.sessions:
        out.decoders[sid] = rand_matrix(rng, net.p, w * horizon, net.q * horizon)
    return out


def code_text(net: NetSpec, rng: random.Random) -> str:
    """A uniformly random code file for a layered network."""
    q, t = net.q, net.horizon
    lines = [f"T: {t}"]
    for sid, _, _, w in net.sessions:
        lines.append(f"C {sid}: {matrix_literal(rand_matrix(rng, net.p, q, w * t))}")
    for sid, _, _, w in net.sessions:
        lines.append(f"D {sid}: {matrix_literal(rand_matrix(rng, net.p, w * t, q))}")
    for v in net.relay_nodes():
        lines.append(f"F {v}: {matrix_literal(rand_matrix(rng, net.p, q, q))}")
    return "\n".join(lines) + "\n"


def message_text(net: NetSpec, rng: random.Random) -> str:
    lines = []
    for sid, _, _, w in net.sessions:
        vec = [rng.randrange(net.p) for _ in range(w * net.horizon)]
        lines.append(f"W {sid}: [{','.join(map(str, vec))}]")
    return "\n".join(lines) + "\n"
