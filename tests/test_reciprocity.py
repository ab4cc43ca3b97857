import random

import pytest

from ldnc import reciprocity
from ldnc.coding import LinearCode, is_solving, simulate, transfer_matrices
from ldnc.errors import CodeBindingError, NonShiftGainError
from ldnc.gf_linalg import (
    FieldModulus,
    GfMatrix,
    identity,
    shift_matrix,
    zeros,
)
from ldnc.layering import unfold
from ldnc.network import detect_layers, network, reciprocal_layered
from ldnc.reciprocity import (
    physical_code,
    physical_reverse,
    transpose_code,
    verify_reciprocity,
)

from helpers import (
    all_message_tuples,
    two_unicast_code,
    two_unicast_network,
    random_code,
    random_layered_instance,
    single_edge_identity,
    triangle_network,
)

GF2 = FieldModulus(2)


# ---------------------------------------------------------------------------
# transpose_code
# ---------------------------------------------------------------------------


def test_transpose_of_identity_code_is_identity_code():
    ln, code = single_edge_identity(p=2, q=2)
    back = transpose_code(ln, code)
    assert back.encoders[1].is_identity()
    assert back.decoders[1].is_identity()
    assert back.network.base.edge_map() == {("b", "a"): identity(GF2, 2)}


def test_transpose_grid_is_swapped_transpose_on_two_unicast():
    ln = detect_layers(two_unicast_network())
    code = two_unicast_code(ln)
    gamma = transfer_matrices(ln, code)
    rcode = transpose_code(ln, code)
    gamma_r = transfer_matrices(reciprocal_layered(ln), rcode)
    for l in (1, 2):
        for k in (1, 2):
            assert gamma_r.entry(l, k) == gamma.entry(k, l).T


def test_transpose_code_is_involution():
    rng = random.Random(17)
    for _ in range(5):
        ln = random_layered_instance(rng)
        code = random_code(ln, rng)
        twice = transpose_code(reciprocal_layered(ln), transpose_code(ln, code))
        assert twice.network == ln
        assert dict(twice.encoders) == dict(code.encoders)
        assert dict(twice.decoders) == dict(code.decoders)
        assert dict(twice.relays) == dict(code.relays)


# ---------------------------------------------------------------------------
# verify_reciprocity
# ---------------------------------------------------------------------------


def test_report_all_true_for_solving_code():
    ln = detect_layers(two_unicast_network())
    report = verify_reciprocity(ln, two_unicast_code(ln))
    assert report.flags() == {
        "solves_forward": True,
        "duality_holds": True,
        "transpose_solves_reciprocal": True,
        "solvability_carried": True,
    }


def test_report_on_non_solving_code_keeps_duality():
    ln, code = single_edge_identity()
    broken = LinearCode(
        network=ln,
        encoders=code.encoders,
        decoders={1: zeros(GF2, 2, 2)},
        relays={},
    )
    report = verify_reciprocity(ln, broken)
    assert not report.solves_forward
    assert report.duality_holds
    assert not report.transpose_solves_reciprocal
    assert report.solvability_carried


def test_duality_holds_on_200_random_instances():
    rng = random.Random(2024)
    for _ in range(200):
        ln = random_layered_instance(rng, max_per_layer=4)
        code = random_code(ln, rng)
        report = verify_reciprocity(ln, code)
        assert report.duality_holds
        assert report.solvability_carried


def test_duality_holds_for_every_code_of_tiny_instances():
    # exhaustive over the full code space of two micro-instances
    from ldnc.search import candidate_code, candidate_count

    fm = GF2
    g = identity(fm, 1)
    instances = [
        detect_layers(
            network(2, 1, ["a", "b"], [("a", "b", g)], [(1, "a", "b", 1)])
        ),
        detect_layers(
            network(
                2, 1,
                ["s1", "s2", "d1", "d2"],
                [("s1", "d1", g), ("s1", "d2", g), ("s2", "d2", g)],
                [(1, "s1", "d1", 1), (2, "s2", "d2", 1)],
            )
        ),
    ]
    for ln in instances:
        for index in range(candidate_count(ln)):
            code = candidate_code(ln, index)
            assert verify_reciprocity(ln, code).duality_holds


# ---------------------------------------------------------------------------
# physical_code
# ---------------------------------------------------------------------------


def shift_chain_network(q=3, strengths=(1,), p=2, width=None):
    fm = FieldModulus(p)
    names = [f"v{i}" for i in range(len(strengths) + 1)]
    edges = [
        (names[i], names[i + 1], shift_matrix(fm, q, g))
        for i, g in enumerate(strengths)
    ]
    w = width if width is not None else 1
    return network(p, q, names, edges, [(1, names[0], names[-1], w)])


def test_physical_code_is_identity_transform_for_scalar_vectors():
    ln = detect_layers(shift_chain_network(q=1, strengths=(1,)))
    rng = random.Random(3)
    rcode = random_code(reciprocal_layered(ln), rng)
    phys = physical_code(ln, rcode)
    assert dict(phys.encoders) == dict(rcode.encoders)
    assert dict(phys.decoders) == dict(rcode.decoders)


def test_physical_code_matches_reciprocal_simulation_single_edge():
    # One shift edge of strength 1 over length-3 vectors: the flipped code
    # on the physical reverse reproduces the transposed-gain behavior for
    # every message.
    ln = detect_layers(shift_chain_network(q=3, strengths=(1,), width=3))
    rln = reciprocal_layered(ln)
    rng = random.Random(9)
    for _ in range(10):
        rcode = random_code(rln, rng)
        phys = physical_code(ln, rcode)
        msgs = all_message_tuples(rln)
        assert simulate(rln, rcode, msgs) == simulate(phys.network, phys, msgs)


def test_physical_code_end_to_end_through_relays():
    # Two-hop shift network: a solving forward code transposes to the
    # reciprocal, then flips onto the physical reverse network, and solves
    # it with the original gains.
    fm = GF2
    q = 2
    full = shift_matrix(fm, q, q)
    ln = detect_layers(shift_chain_network(q=q, strengths=(q, q), width=1))
    eye = identity(fm, q)
    code = LinearCode(
        network=ln,
        encoders={1: eye},
        decoders={1: eye},
        relays={"v1": eye},
    )
    assert is_solving(ln, code)
    rcode = transpose_code(ln, code)
    assert is_solving(reciprocal_layered(ln), rcode)
    phys = physical_code(ln, rcode)
    assert is_solving(phys.network, phys)
    assert phys.network.base.edge_map()[("v2", "v1")] == full


def test_physical_code_on_corpus_shift_network():
    # the bundled two-unicast instance is a shift network: its transposed
    # code flips onto the reverse network with the forward gains intact,
    # solves it, and reproduces the reciprocal simulation exactly
    ln = detect_layers(two_unicast_network())
    code = two_unicast_code(ln)
    rln = reciprocal_layered(ln)
    rcode = transpose_code(ln, code)
    phys = physical_code(ln, rcode)
    fwd = ln.base.edge_map()
    for (src, dst), gain in phys.network.base.edge_map().items():
        assert gain == fwd[(dst, src)]
    assert is_solving(phys.network, phys)
    msgs = all_message_tuples(rln)
    assert simulate(rln, rcode, msgs) == simulate(phys.network, phys, msgs)


def test_physical_code_builds_the_reciprocal_once(monkeypatch):
    ln = detect_layers(two_unicast_network())
    rcode = transpose_code(ln, two_unicast_code(ln))
    built = []

    def counted(layered):
        built.append(layered)
        return reciprocal_layered(layered)

    monkeypatch.setattr(reciprocity, "reciprocal_layered", counted)
    phys = physical_code(ln, rcode)
    assert built == [ln]
    assert phys.network == physical_reverse(ln)


def test_physical_code_rejects_non_shift_gains():
    fm = GF2
    n = network(
        2, 2,
        ["a", "b"],
        [("a", "b", GfMatrix.from_rows(fm, [[1, 1], [0, 1]]))],
        [(1, "a", "b", 2)],
    )
    ln = detect_layers(n)
    rng = random.Random(4)
    rcode = random_code(reciprocal_layered(ln), rng)
    with pytest.raises(NonShiftGainError):
        physical_code(ln, rcode)


def test_physical_code_rejects_wrongly_bound_code():
    ln = detect_layers(shift_chain_network(q=2, strengths=(2,), width=2))
    rng = random.Random(6)
    forward_code = random_code(ln, rng)
    with pytest.raises(CodeBindingError):
        physical_code(ln, forward_code)


def test_physical_reverse_keeps_gains_and_flips_layers():
    ln = detect_layers(shift_chain_network(q=3, strengths=(1, 2)))
    rev = physical_reverse(ln)
    assert rev.base.edge_map()[("v1", "v0")] == shift_matrix(GF2, 3, 1)
    assert rev.base.edge_map()[("v2", "v1")] == shift_matrix(GF2, 3, 2)
    for v in ln.base.nodes:
        assert rev.layer_of(v) == ln.horizon - ln.layer_of(v)
    # an unfolding's copies of one gain stay one gain on the reverse links
    un = unfold(triangle_network(), 4)
    assert len({id(e.gain) for e in physical_reverse(un).base.edges}) == len(
        {id(e.gain) for e in un.base.edges}) < len(un.base.edges)


# ---------------------------------------------------------------------------
# Live reciprocals are reused, never kept alive
# ---------------------------------------------------------------------------


def test_transpose_code_binds_to_the_callers_reciprocal(monkeypatch):
    from ldnc.network import Network

    ln = detect_layers(two_unicast_network())
    code = two_unicast_code(ln)
    rln = reciprocal_layered(ln)
    assert reciprocal_layered(ln) is rln
    assert reciprocal_layered(rln) is ln
    rcode = transpose_code(ln, code)
    assert rcode.network is rln
    assert transpose_code(rln, rcode).network is ln
    # both codes are bound to the caller's objects: no structural comparison
    compared = []
    monkeypatch.setattr(Network, "__eq__", lambda a, b: compared.append(a) or a is b)
    assert all(verify_reciprocity(ln, code).flags().values())
    assert all(verify_reciprocity(rln, rcode).flags().values())
    assert compared == []


def test_a_reciprocal_lives_only_while_its_caller_holds_it():
    import gc
    import weakref

    from ldnc.network import _DERIVED

    ln = detect_layers(two_unicast_network())
    rln = reciprocal_layered(ln)
    verify_reciprocity(ln, two_unicast_code(ln))
    dead = weakref.ref(rln)
    del rln
    gc.collect()
    assert dead() is None
    # a source that outlives the reciprocals built for it keeps no entry
    # for any of them
    entries = len(_DERIVED)
    for _ in range(50):
        verify_reciprocity(ln, two_unicast_code(ln))
    assert (id(ln), None) not in _DERIVED
    assert len(_DERIVED) == entries
    # the source lives while its reciprocal does, and both die once dropped
    rln = reciprocal_layered(ln)
    key = (id(ln), None)
    dead = weakref.ref(ln)
    del ln
    gc.collect()
    assert reciprocal_layered(rln) is dead()
    del rln
    gc.collect()
    assert dead() is None
    assert key not in _DERIVED


def test_reciprocal_layered_never_answers_for_a_dead_source():
    # sources of changing shapes are dropped, every other one together with
    # its reciprocal, so their ids are free for the next sources; every
    # answer must still be the reciprocal of the network asked for
    from ldnc.network import reciprocal

    rng = random.Random(1404)
    kept = []
    for i in range(60):
        ln = random_layered_instance(rng)
        rln = reciprocal_layered(ln)
        assert rln == detect_layers(reciprocal(ln.base))
        assert all(rln is not k for k in kept)
        assert reciprocal_layered(rln) is ln
        if i % 2:
            kept.append(rln)
        del ln, rln
    # a kept reciprocal keeps its source, and answers with it
    for rln in kept:
        back = reciprocal_layered(rln)
        assert back == detect_layers(reciprocal(rln.base))
        assert reciprocal_layered(back) is rln
