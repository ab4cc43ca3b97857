import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ldnc.coding import LinearCode, is_solving, simulate, transfer_matrices
from ldnc.errors import CodeBindingError
from ldnc.gf_linalg import FieldModulus, GfMatrix, identity, zeros
from ldnc.network import detect_layers, network

from helpers import (
    all_message_tuples,
    butterfly_code,
    butterfly_network,
    layout_edge_cases,
    two_unicast_code,
    two_unicast_network,
    path_sum_transfer,
    random_code,
    random_layered_instance,
    random_messages,
    single_edge_identity,
)

GF2 = FieldModulus(2)
GF3 = FieldModulus(3)


# ---------------------------------------------------------------------------
# transfer_matrices
# ---------------------------------------------------------------------------


def test_transfer_matches_displayed_path_formula_on_two_unicast():
    # Grid entries must equal the four explicit two-path product sums,
    # here assembled by hand with plain matrix arithmetic.
    ln = detect_layers(two_unicast_network())
    rng = random.Random(31)
    for code in (two_unicast_code(ln), random_code(ln, rng), random_code(ln, rng)):
        g = ln.base.edge_map()
        c, d, f = code.encoders, code.decoders, code.relays
        gamma = transfer_matrices(ln, code)
        expected = {
            (1, 1): d[1] @ g[("3", "5")] @ f["3"] @ g[("1", "3")] @ c[1]
            + d[1] @ g[("4", "5")] @ f["4"] @ g[("1", "4")] @ c[1],
            (1, 2): d[2] @ g[("3", "6")] @ f["3"] @ g[("1", "3")] @ c[1]
            + d[2] @ g[("4", "6")] @ f["4"] @ g[("1", "4")] @ c[1],
            (2, 2): d[2] @ g[("3", "6")] @ f["3"] @ g[("2", "3")] @ c[2]
            + d[2] @ g[("4", "6")] @ f["4"] @ g[("2", "4")] @ c[2],
            (2, 1): d[1] @ g[("3", "5")] @ f["3"] @ g[("2", "3")] @ c[2]
            + d[1] @ g[("4", "5")] @ f["4"] @ g[("2", "4")] @ c[2],
        }
        for (l, k), want in expected.items():
            assert gamma.entry(l, k) == want


def test_transfer_identity_single_edge():
    ln, code = single_edge_identity(p=2, q=2)
    gamma = transfer_matrices(ln, code)
    assert gamma.entry(1, 1) == identity(GF2, 2)
    assert gamma.is_identity_delta()


def test_transfer_columns_match_simulation_probes():
    rng = random.Random(53)
    for _ in range(10):
        ln = random_layered_instance(rng)
        code = random_code(ln, rng)
        gamma = transfer_matrices(ln, code)
        sessions = ln.base.sessions_sorted()
        for li, sl in enumerate(sessions):
            mlen = ln.message_length(sl)
            for col in range(mlen):
                probe = []
                for s in sessions:
                    vec = zeros(ln.base.field, ln.message_length(s), 1).to_array().copy()
                    if s.id == sl.id:
                        vec[col, 0] = 1
                    probe.append(GfMatrix(ln.base.field, vec))
                outs = simulate(ln, code, probe)
                for ki, sk in enumerate(sessions):
                    expected_col = gamma.grid[li][ki].to_array()[:, col]
                    assert outs[ki].to_array()[:, 0].tolist() == expected_col.tolist()


def test_transfer_rejects_foreign_code():
    ln, code = single_edge_identity()
    other_ln = detect_layers(two_unicast_network())
    with pytest.raises(CodeBindingError):
        transfer_matrices(other_ln, code)


def test_transfer_rejects_bad_shapes():
    ln, code = single_edge_identity(p=2, q=2)
    bad = LinearCode(
        network=ln,
        encoders={1: identity(GF2, 3)},
        decoders=code.decoders,
        relays={},
    )
    with pytest.raises(CodeBindingError):
        transfer_matrices(ln, bad)


@pytest.mark.parametrize("role, key, spare", [
    ("encoder", 2, 3), ("relay", "4", "9"), ("decoder", 1, 3),
])
@pytest.mark.parametrize("fault", ["missing", "extra", "misshapen", "foreign-modulus"])
def test_validate_code_names_the_role_and_key_of_each_fault(role, key, spare, fault):
    ln = detect_layers(two_unicast_network())
    code = two_unicast_code(ln)
    mats = {
        "encoders": dict(code.encoders),
        "relays": dict(code.relays),
        "decoders": dict(code.decoders),
    }
    target = mats[role + "s"]
    m = target[key]
    if fault == "missing":
        del target[key]
        text = f"{role} {key!r} is missing"
    elif fault == "extra":
        target[spare] = m
        text = f"{role} {spare!r} has no slot in the network"
    elif fault == "misshapen":
        target[key] = zeros(GF2, m.rows + 1, m.cols)
        text = f"{role} {key!r} has shape {(m.rows + 1, m.cols)}, expected {m.shape}"
    else:
        target[key] = GfMatrix(GF3, m.to_array())
        text = f"{role} {key!r} is over GF(3), expected GF(2)"
    with pytest.raises(CodeBindingError) as info:
        transfer_matrices(ln, LinearCode(network=ln, **mats))
    assert str(info.value) == text


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_zero_messages_give_zero_reconstructions():
    rng = random.Random(7)
    ln = random_layered_instance(rng)
    code = random_code(ln, rng)
    msgs = [
        zeros(ln.base.field, ln.message_length(s), 1)
        for s in ln.base.sessions_sorted()
    ]
    assert all(w.is_zero() for w in simulate(ln, code, msgs))


def test_simulate_identity_edge_reconstructs_every_message():
    ln, code = single_edge_identity(p=3, q=2)
    msgs = all_message_tuples(ln)
    outs = simulate(ln, code, msgs)
    assert outs[0] == msgs[0]


def test_simulate_agrees_with_transfer_on_two_unicast():
    ln = detect_layers(two_unicast_network())
    code = two_unicast_code(ln)
    gamma = transfer_matrices(ln, code)
    sessions = ln.base.sessions_sorted()
    for li, sl in enumerate(sessions):
        for col in range(ln.message_length(sl)):
            probe = []
            for s in sessions:
                arr = zeros(GF2, ln.message_length(s), 1).to_array().copy()
                if s.id == sl.id:
                    arr[col, 0] = 1
                probe.append(GfMatrix(GF2, arr))
            outs = simulate(ln, code, probe)
            for ki in range(len(sessions)):
                assert (
                    outs[ki].to_array()[:, 0].tolist()
                    == gamma.grid[li][ki].to_array()[:, col].tolist()
                )


def test_simulate_is_linear():
    rng = random.Random(97)
    for _ in range(10):
        ln = random_layered_instance(rng)
        code = random_code(ln, rng)
        p = ln.base.field.p
        alpha = rng.randrange(1, p)
        w1 = random_messages(ln, rng)
        w2 = random_messages(ln, rng)
        combo = [
            GfMatrix(ln.base.field, (alpha * a.to_array() + b.to_array()) % p)
            for a, b in zip(w1, w2)
        ]
        lhs = simulate(ln, code, combo)
        out1 = simulate(ln, code, w1)
        out2 = simulate(ln, code, w2)
        for got, a, b in zip(lhs, out1, out2):
            want = (alpha * a.to_array() + b.to_array()) % p
            assert got.to_array().tolist() == want.tolist()


def test_simulate_rejects_wrong_lengths():
    ln, code = single_edge_identity(p=2, q=2)
    with pytest.raises(CodeBindingError):
        simulate(ln, code, [zeros(GF2, 3, 1)])
    with pytest.raises(CodeBindingError, match="expected 1 message vectors, got 2"):
        simulate(ln, code, [zeros(GF2, 2, 1)] * 2)


# ---------------------------------------------------------------------------
# is_solving
# ---------------------------------------------------------------------------


def test_is_solving_identity_edge():
    ln, code = single_edge_identity()
    assert is_solving(ln, code)


def test_is_solving_false_with_zeroed_decoder():
    ln, code = single_edge_identity()
    broken = LinearCode(
        network=ln,
        encoders=code.encoders,
        decoders={1: zeros(GF2, 2, 2)},
        relays={},
    )
    assert not is_solving(ln, broken)


def test_is_solving_two_unicast_bundled_code():
    ln = detect_layers(two_unicast_network())
    assert is_solving(ln, two_unicast_code(ln))


def test_is_solving_butterfly_classical_code():
    ln = detect_layers(butterfly_network())
    code = butterfly_code(ln)
    assert is_solving(ln, code)
    # and the bottleneck relay really adds its two input bands
    relay = code.relays["n1"].to_array()
    assert relay[:3, :3].tolist() == identity(GF2, 3).to_array().tolist()
    assert relay[:3, 3:].tolist() == identity(GF2, 3).to_array().tolist()


def test_butterfly_needs_the_relay_sum():
    # Dropping one input band at the bottleneck breaks a session: the
    # instance is not solvable by pure forwarding through n1.
    ln = detect_layers(butterfly_network())
    code = butterfly_code(ln)
    relays = dict(code.relays)
    arr = relays["n1"].to_array().copy()
    arr[:3, 3:] = 0
    relays["n1"] = GfMatrix(GF2, arr)
    assert not is_solving(ln, LinearCode(ln, code.encoders, code.decoders, relays))


# ---------------------------------------------------------------------------
# Oracle equivalence and invariances
# ---------------------------------------------------------------------------


def test_propagation_equals_path_sum_on_fixed_instances():
    rng = random.Random(5)
    for build_net, build_code in (
        (two_unicast_network, two_unicast_code),
        (butterfly_network, butterfly_code),
    ):
        ln = detect_layers(build_net())
        for code in (build_code(ln), random_code(ln, rng)):
            assert transfer_matrices(ln, code).grid == path_sum_transfer(ln, code).grid
    # a width-0 session, a width-2 one, a shared source and a destination
    # nothing reaches: zero arrivals decode to (len_k, len_l) zero entries
    for p in (2, 3):
        for q in (1, 2):
            cases = layout_edge_cases(p, q)
            for ln in cases:
                code = random_code(ln, rng)
                grid = transfer_matrices(ln, code).grid
                assert grid == path_sum_transfer(ln, code).grid
                sessions = ln.base.sessions_sorted()
                for l, row in zip(sessions, grid):
                    for k, entry in zip(sessions, row):
                        assert entry.shape == (ln.message_length(k), ln.message_length(l))
                if ln is cases[-1]:
                    assert all(row[1].is_zero() for row in grid)


def test_propagation_equals_path_sum_on_random_instances():
    rng = random.Random(13)
    for _ in range(25):
        ln = random_layered_instance(rng, max_per_layer=3)
        code = random_code(ln, rng)
        assert transfer_matrices(ln, code).grid == path_sum_transfer(ln, code).grid


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 5, 2**31 - 1]))
@settings(derandomize=True, database=None, deadline=None, max_examples=80,
          suppress_health_check=[HealthCheck.too_slow])
def test_simulate_transfer_and_path_sum_agree(seed, p):
    # simulate on unit messages spells out the transfer grid: column block
    # l of the reconstruction of message k is grid[l][k].  On random
    # multi-column messages W_l it is the sum of grid[l][k] . W_l, which a
    # transposed or permuted W would break.  Beside a random instance run
    # the layout edge cases and a network whose sessions all have width 0.
    # At p = 2**31 - 1 room is 2: sums of three or more products are cut
    # into chunks with a reduction between them.
    rng = random.Random(seed)
    fm = FieldModulus(p)
    q = rng.choice((1, 2))
    all_width_zero = detect_layers(network(
        p, q, ["a", "b"], [("a", "b", identity(fm, q))], [(1, "a", "b", 0), (2, "a", "b", 0)]
    ))
    instances = [
        random_layered_instance(rng, p_choices=(p,), horizon_choices=(1, 2, 3), max_per_layer=3),
        *layout_edge_cases(p, q),
        all_width_zero,
    ]
    for ln in instances:
        code = random_code(ln, rng)
        grid = transfer_matrices(ln, code).grid
        assert grid == path_sum_transfer(ln, code).grid
        lengths = [ln.message_length(s) for s in ln.base.sessions_sorted()]
        cuts = np.cumsum([0, *lengths])
        unit = np.eye(int(cuts[-1]), dtype=np.int64)
        messages = [GfMatrix(fm, unit[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
        for k, out in enumerate(simulate(ln, code, messages)):
            for l, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
                assert out.to_array()[:, lo:hi].tolist() == grid[l][k].to_rows()
        cols = rng.randint(1, 4)
        messages = random_messages(ln, rng, cols=cols)
        for k, out in enumerate(simulate(ln, code, messages)):
            want = zeros(fm, lengths[k], cols)
            for l, w in enumerate(messages):
                want = want + grid[l][k] @ w
            assert out == want


def test_is_solving_invariant_under_relay_relabeling():
    ln = detect_layers(two_unicast_network())
    rng = random.Random(67)
    for _ in range(5):
        code = random_code(ln, rng)
        verdict = is_solving(ln, code)
        # swap relay nodes 3 and 4 consistently in network and code
        swap = {"3": "4", "4": "3"}
        ren = lambda v: swap.get(v, v)
        base = ln.base
        renamed = type(base)(
            field=base.field,
            q=base.q,
            nodes=tuple(ren(v) for v in base.nodes),
            edges=tuple(
                type(base.edges[0])(ren(e.src), ren(e.dst), e.gain) for e in base.edges
            ),
            sessions=base.sessions,
        )
        rln = detect_layers(renamed)
        rcode = LinearCode(
            network=rln,
            encoders=code.encoders,
            decoders=code.decoders,
            relays={ren(v): m for v, m in code.relays.items()},
        )
        assert is_solving(rln, rcode) == verdict


def test_width_zero_sessions_are_vacuously_solved():
    from ldnc.network import network as make_net

    fm = GF2
    n = make_net(
        2, 1, ["a", "b"], [("a", "b", identity(fm, 1))], [(1, "a", "b", 0)]
    )
    ln = detect_layers(n)
    code = LinearCode(
        network=ln,
        encoders={1: zeros(fm, 1, 0)},
        decoders={1: zeros(fm, 0, 1)},
        relays={},
    )
    gamma = transfer_matrices(ln, code)
    assert gamma.entry(1, 1).shape == (0, 0)
    assert is_solving(ln, code)
