"""Acceptance suite: one test per criterion, exact tolerances, fixed seeds.

Every check is exact field arithmetic; there are no numeric tolerances
to calibrate.  Each test prints a single PASS line when it completes so
a harness run with ``pytest -s`` (or ``-rA``) shows one verdict per
criterion.
"""

import random
import time

import numpy as np
from click.testing import CliRunner

from ldnc import corpus
from ldnc.cli import main as cli_main
from ldnc.coding import is_solving, simulate, transfer_matrices
from ldnc.errors import BlockFormError
from ldnc.fileformat import parse_code, parse_network
from ldnc.gf_linalg import FieldModulus, GfMatrix, flip_matrix, random_matrix, shift_matrix
from ldnc.layering import lift_code, project_code, simulate_unlayered, unfold
from ldnc.network import detect_layers, network, reciprocal, reciprocal_layered
from ldnc.reciprocity import transpose_code, verify_reciprocity
from ldnc.search import candidate_count, exhaustive_search, free_entry_count

from helpers import (
    all_message_columns,
    band_reversed_code,
    gf2_instance_family,
    path_sum_transfer,
    random_code,
    random_layered_instance,
    random_scheme,
    schemes_equal,
    three_node_unfolding_family,
)


def _report(name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: PASS{suffix}")


# ---------------------------------------------------------------------------
# 1. Flip conjugation turns every shift gain into its transpose
# ---------------------------------------------------------------------------


def test_c1_shift_flip_identity():
    start = time.monotonic()
    checked = 0
    for p in (2, 3, 5):
        field = FieldModulus(p)
        for q in range(1, 9):
            j = flip_matrix(field, q)
            for g in range(q + 1):
                s = shift_matrix(field, q, g)
                assert j @ s @ j == s.T
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    _report("1 shift/flip identity", f"{checked} cases in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Unconditional transfer duality on random layered instances
# ---------------------------------------------------------------------------


def test_c2_unconditional_transfer_duality():
    start = time.monotonic()
    rng = random.Random(22_02_02)
    instances = 0
    while instances < 500:
        ln = random_layered_instance(
            rng,
            p_choices=(2, 3),
            q_choices=(1, 2, 3),
            horizon_choices=(1, 2),
            max_per_layer=5,
            max_sessions=3,
        )
        code = random_code(ln, rng)
        gamma = transfer_matrices(ln, code)
        gamma_r = transfer_matrices(
            reciprocal_layered(ln), transpose_code(ln, code)
        )
        ids = [s.id for s in gamma.sessions]
        for l in ids:
            for k in ids:
                assert gamma_r.entry(l, k) == gamma.entry(k, l).T
        instances += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.2f}s"
    _report("2 transfer duality", f"{instances} instances in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Solvability carries to the reciprocal across an exhaustive sweep
# ---------------------------------------------------------------------------


def test_c3_reciprocity_of_exhaustive_search_verdicts():
    start = time.monotonic()
    family = gf2_instance_family(max_entries=20)
    assert len(family) >= 2000, "sweep family must stay in the thousands"
    found = exhausted = 0
    for ln in family:
        assert free_entry_count(ln) <= 20
        result = exhaustive_search(ln, budget=candidate_count(ln))
        rln = reciprocal_layered(ln)
        if result.outcome == "found":
            found += 1
            assert is_solving(rln, transpose_code(ln, result.code))
            if found % 10 == 0:
                mirror = exhaustive_search(rln, budget=candidate_count(rln))
                assert mirror.outcome == "found"
        else:
            assert result.outcome == "exhausted"
            exhausted += 1
            mirror = exhaustive_search(rln, budget=candidate_count(rln))
            assert mirror.outcome == "exhausted"
    elapsed = time.monotonic() - start
    _report(
        "3 search reciprocity sweep",
        f"{found} found / {exhausted} exhausted over {len(family)} instances "
        f"in {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 4. The corpus two-unicast instance matches its displayed path sums
# ---------------------------------------------------------------------------


def test_c4_two_unicast_formula_check():
    ln = detect_layers(parse_network(corpus.read("twounicast.net")))
    rng = random.Random(44)
    codes = [parse_code(corpus.read("twounicast.code"), ln)]
    codes += [random_code(ln, rng) for _ in range(5)]
    g = ln.base.edge_map()
    for code in codes:
        c, d, f = code.encoders, code.decoders, code.relays
        gamma = transfer_matrices(ln, code)
        assert gamma.entry(1, 1) == (
            d[1] @ g[("3", "5")] @ f["3"] @ g[("1", "3")] @ c[1]
            + d[1] @ g[("4", "5")] @ f["4"] @ g[("1", "4")] @ c[1]
        )
        assert gamma.entry(1, 2) == (
            d[2] @ g[("3", "6")] @ f["3"] @ g[("1", "3")] @ c[1]
            + d[2] @ g[("4", "6")] @ f["4"] @ g[("1", "4")] @ c[1]
        )
        assert gamma.entry(2, 2) == (
            d[2] @ g[("3", "6")] @ f["3"] @ g[("2", "3")] @ c[2]
            + d[2] @ g[("4", "6")] @ f["4"] @ g[("2", "4")] @ c[2]
        )
        assert gamma.entry(2, 1) == (
            d[1] @ g[("3", "5")] @ f["3"] @ g[("2", "3")] @ c[2]
            + d[1] @ g[("4", "5")] @ f["4"] @ g[("2", "4")] @ c[2]
        )
    _report("4 two-unicast formula check", f"{len(codes)} codes")


# ---------------------------------------------------------------------------
# 5. Propagation equals the explicit sum over all paths
# ---------------------------------------------------------------------------


def test_c5_path_sum_oracle():
    rng = random.Random(55_55)
    checked = 0
    for name in ("twounicast", "single_edge", "zero_edge", "butterfly"):
        ln = detect_layers(parse_network(corpus.read(f"{name}.net")))
        if len(ln.base.nodes) <= 6 or name == "butterfly":
            code = random_code(ln, rng)
            assert transfer_matrices(ln, code).grid == path_sum_transfer(ln, code).grid
            checked += 1
    for _ in range(100):
        ln = random_layered_instance(
            rng, max_per_layer=2, horizon_choices=(1, 2), max_sessions=2
        )
        assert len(ln.base.nodes) <= 6
        code = random_code(ln, rng)
        assert transfer_matrices(ln, code).grid == path_sum_transfer(ln, code).grid
        checked += 1
    _report("5 path-sum oracle", f"{checked} instances")


# ---------------------------------------------------------------------------
# 6. Unfolding preserves behavior; projection inverts lifting
# ---------------------------------------------------------------------------


def test_c6_unfolding_equivalence():
    start = time.monotonic()
    rng = random.Random(66_66)
    instances = runs = 0
    for n, horizon in three_node_unfolding_family():
        msgs = all_message_columns(
            n.field, [s.width * horizon for s in n.sessions_sorted()]
        )
        for _ in range(100):
            scheme = random_scheme(n, horizon, rng)
            direct = simulate_unlayered(n, scheme, msgs)
            lifted = lift_code(n, scheme)
            assert simulate(lifted.network, lifted, msgs) == direct
            assert schemes_equal(n, project_code(lifted), scheme)
            runs += 1
        instances += 1
    elapsed = time.monotonic() - start
    _report(
        "6 unfolding equivalence",
        f"{instances} instances x 100 schemes, all message tuples, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 7. Butterfly reversibility through the command-line interface
# ---------------------------------------------------------------------------


def test_c7_butterfly_reversibility():
    runner = CliRunner()
    result = runner.invoke(
        cli_main,
        [
            "verify-reciprocity",
            corpus.location("butterfly.net"),
            corpus.location("butterfly.code"),
            "--format",
            "structured",
        ],
    )
    assert result.exit_code == 0
    lines = result.output.splitlines()
    for flag in (
        "solves_forward",
        "duality_holds",
        "transpose_solves_reciprocal",
        "solvability_carried",
    ):
        assert f"{flag} true" in lines
    # the same statement through the library surface
    ln = detect_layers(parse_network(corpus.read("butterfly.net")))
    code = parse_code(corpus.read("butterfly.code"), ln)
    report = verify_reciprocity(ln, code)
    assert all(report.flags().values())
    _report("7 butterfly reversibility")


# ---------------------------------------------------------------------------
# 8. Byte-identical search output under a fixed seed
# ---------------------------------------------------------------------------


def test_c8_search_determinism():
    runner = CliRunner()

    def run(*args):
        result = runner.invoke(cli_main, list(args))
        return result.exit_code, result.output.encode()

    random_args = (
        "search", corpus.location("single_edge.net"),
        "--trials", "3000", "--seed", "17", "--format", "structured",
    )
    exhaustive_args = (
        "search", corpus.location("single_edge.net"),
        "--budget", "200000", "--format", "structured",
    )
    for args in (random_args, exhaustive_args):
        first = run(*args)
        second = run(*args)
        assert first == second
        assert first[1] == second[1]
    _report("8 search determinism")


# ---------------------------------------------------------------------------
# 9. Reciprocity for networks with cycles, through the unfolding
# ---------------------------------------------------------------------------


def _over_large_prime(n, rng):
    """``n``'s graph and sessions over GF(2^31 - 1), with random gains."""
    p = 2**31 - 1
    fm = FieldModulus(p)
    edges = [(e.src, e.dst, random_matrix(fm, n.q, n.q, rng)) for e in n.edges]
    return network(p, n.q, n.nodes, edges, n.sessions)


def test_c9_reciprocity_through_the_unfolding():
    # A time-indexed scheme on a network with cycles is lifted onto its
    # unfolding, transposed onto the unfolding's reciprocal and carried onto
    # the unfolding of the reciprocal network; projecting that code gives a
    # scheme on the reciprocal whose direct time-domain run has the
    # transposed, index-swapped transfer grid of the forward scheme.
    start = time.monotonic()
    rng = random.Random(99_99)
    family = list(three_node_unfolding_family())
    instances = family + [
        (_over_large_prime(n, rng), horizon) for n, horizon in family[7::40]
    ]
    cases = solving = block_form_errors = 0
    for n, horizon in instances:
        rn = reciprocal(n)
        target = unfold(rn, horizon)
        offsets = np.cumsum([0] + [s.width * horizon for s in rn.sessions_sorted()])
        # unit messages: each output is one row of the reciprocal's grid
        unit = np.eye(offsets[-1], dtype=np.int64)
        msgs = [GfMatrix(rn.field, unit[a:b]) for a, b in zip(offsets, offsets[1:])]
        for _ in range(3):
            lifted = lift_code(n, random_scheme(n, horizon, rng))
            un = lifted.network
            gamma = transfer_matrices(un, lifted)
            rcode = transpose_code(un, lifted)
            assert rcode.network is reciprocal_layered(un)
            assert reciprocal_layered(rcode.network) is un
            cases += 1
            try:
                rscheme = project_code(band_reversed_code(rcode, target))
            except BlockFormError:
                block_form_errors += 1
                continue
            outputs = simulate_unlayered(rn, rscheme, msgs)
            for k, out in enumerate(outputs):
                for l, (a, b) in enumerate(zip(offsets, offsets[1:])):
                    assert np.array_equal(out.to_array()[:, a:b], gamma.grid[k][l].T.to_array())
            if gamma.is_identity_delta():
                assert outputs == msgs
                solving += 1
    # counted rather than skipped; README gives the reason it stays 0
    assert block_form_errors == 0
    elapsed = time.monotonic() - start
    _report(
        "9 reciprocity through the unfolding",
        f"{len(instances)} instances ({len(instances) - len(family)} over GF(2^31-1)), "
        f"{cases} schemes, {solving} solving, {block_form_errors} BlockFormError, "
        f"{elapsed:.1f}s",
    )
