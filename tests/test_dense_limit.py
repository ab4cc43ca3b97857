"""One size rule, ``gf_linalg.dense_capacity``, guards every dense array
built from a compact description, so patching its one limit moves them all."""

import random

import pytest

from ldnc import gf_linalg
from ldnc.errors import ParseError
from ldnc.fileformat import parse_network
from ldnc.layering import lift_code, unfold
from ldnc.search import candidate_code, exhaustive_search, random_search

from helpers import identity_edge, random_scheme, triangle_network

SHIFTS = "p: 2\nq: 2\nnodes: a b0 b1 b2\nedges:\n" + "".join(
    f"  a -> b{g} gain shift g={g}\n" for g in range(3)
)


def lift():
    n = triangle_network(2, 2)
    return lift_code(n, random_scheme(n, 3, random.Random(19)))


# (refusal text, bytes needed, call, exception class); each call needs
# less of every other guard
GUARDS = [
    # a running total of three distinct 2x2 shift gains
    pytest.param(
        "shift gains of size 2x2 need", 3 * 2**2 * 8,
        lambda: parse_network(SHIFTS), ParseError, id="shift-gains",
    ),
    # |E| + 1 = 4 gains of q(T+2) = 6 squared entries; 12 transmissions of 6 rows
    pytest.param(
        "unfolding over 1 instants has 4 gains of size 6x6, which need", 4 * 6**2 * 8,
        lambda: unfold(triangle_network(2, 2), 1), ValueError, id="unfold-gains",
    ),
    # |V|(T+1) + (|V| + |E|)T = 30 transmissions of q(T+2) = 5 rows; 4 gains of 5**2
    pytest.param(
        "unfolding over 3 instants has 30 nodes and edges, whose transmissions need",
        30 * 5 * 8, lambda: unfold(triangle_network(2, 1), 3), ValueError,
        id="unfold-transmissions",
    ),
    # |V|(T-1) = 6 relays of q(T+2) = 10 squared entries; 4 gains of 10**2
    pytest.param(
        "lifting over 3 instants has 6 relays of size 10x10, which need", 6 * 10**2 * 8,
        lift, ValueError, id="lift-relays",
    ),
    # a 2x1 encoder and a 1x2 decoder
    pytest.param(
        "a code of 4 entries needs", 4 * 8,
        lambda: candidate_code(identity_edge(2, 2, 1), 0), ValueError, id="candidate-code",
    ),
    # one pair: its 4 encoder digits and, for L = 2 message symbols, the
    # session's held q x L = 2x2 arrival, three more 2x2 arrays and five
    # L x (q + 2) = 2x4 arrays of its elimination, which outweigh a
    # transmission and arrival at both nodes
    pytest.param(
        "one candidate needs", (4 + 4 * 2 * 2 + 5 * 2 * 4) * 8,
        lambda: exhaustive_search(identity_edge(2, 2, 2)), ValueError, id="exhaustive-batch",
    ),
    # one trial: its 8 digits and the same arrays
    pytest.param(
        "one candidate needs", (8 + 4 * 2 * 2 + 5 * 2 * 4) * 8,
        lambda: random_search(identity_edge(2, 2, 2), trials=20), ValueError,
        id="random-batch",
    ),
]


@pytest.mark.parametrize("what, need, call, error", GUARDS)
def test_one_dense_limit_governs_every_guard(monkeypatch, what, need, call, error):
    monkeypatch.setattr(gf_linalg, "MAX_DENSE_BYTES", need)
    call()
    monkeypatch.setattr(gf_linalg, "MAX_DENSE_BYTES", need - 1)
    with pytest.raises(error, match=f"^{what} {need} bytes, more than {need - 1}$") as refused:
        call()
    assert type(refused.value) is error


def test_dense_capacity_counts_whole_sets():
    limit = gf_linalg.MAX_DENSE_BYTES
    assert gf_linalg.dense_capacity(1, "one entry needs") == limit // 8
    assert gf_linalg.dense_capacity(3, "three entries need") == limit // 24
    assert gf_linalg.dense_capacity(limit // 8, "the limit needs") == 1
    with pytest.raises(ParseError, match=f"^gains need {limit + 8} bytes, more than {limit}$"):
        gf_linalg.dense_capacity(limit // 8 + 1, "gains need", ParseError)
