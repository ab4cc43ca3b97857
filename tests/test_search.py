import logging
import random

import numpy as np
import pytest
from click.testing import CliRunner

from ldnc import gf_linalg, search
from ldnc.cli import main
from ldnc.coding import is_solving, transfer_matrices
from ldnc.fileformat import parse_network, serialize_network
from ldnc.gf_linalg import FieldModulus, GfMatrix, identity, zeros
from ldnc.network import detect_layers, network, reciprocal_layered
from ldnc.reciprocity import transpose_code
from ldnc.search import (
    candidate_code,
    candidate_count,
    exhaustive_search,
    free_entry_count,
    random_search,
)

from helpers import (
    candidate_digits_reference,
    exhaustive_search_reference,
    identity_edge,
    layout_edge_cases,
    random_layered_instance,
    random_search_reference,
    record_product_widths,
    scan_chunk,
    single_edge_identity,
    two_unicast_network,
)

GF2 = FieldModulus(2)


def zero_edge(p=2):
    fm = FieldModulus(p)
    n = network(p, 1, ["a", "b"], [("a", "b", zeros(fm, 1, 1))], [(1, "a", "b", 1)])
    return detect_layers(n)


# ---------------------------------------------------------------------------
# enumeration contract
# ---------------------------------------------------------------------------


def test_entry_counts():
    ln = identity_edge()
    assert free_entry_count(ln) == 2
    assert candidate_count(ln) == 4
    fig = detect_layers(two_unicast_network())
    # two encoders and two decoders of 4 entries, two relays of 4 entries
    assert free_entry_count(fig) == 24


def test_candidate_code_digit_order():
    ln = identity_edge()
    # index 1 sets the first enumerated entry: the encoder
    code = candidate_code(ln, 1)
    assert code.encoders[1] == GfMatrix.from_rows(GF2, [[1]])
    assert code.decoders[1] == GfMatrix.from_rows(GF2, [[0]])
    code = candidate_code(ln, 2)
    assert code.encoders[1] == GfMatrix.from_rows(GF2, [[0]])
    assert code.decoders[1] == GfMatrix.from_rows(GF2, [[1]])
    assert candidate_code(ln, 3).decoders[1] == GfMatrix.from_rows(GF2, [[1]])
    for index in (4, 8, 10**40, -1):
        with pytest.raises(ValueError, match="out of range"):
            candidate_code(ln, index)


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
def test_candidate_digits_spell_the_base_p_index(p):
    # 72 free entries put the last indices past 2**63 even at p = 2
    ln = identity_edge(p=p, q=6, width=6)
    total = free_entry_count(ln)
    space = candidate_count(ln)
    assert space > 2**64
    rng = random.Random(p)
    indices = [0, 1, 2**63 - 1, 2**63, 2**64 + 1, space - 1]
    indices += [rng.randrange(space) for _ in range(20)]
    for index in indices:
        expected, rest = [], index
        for _ in range(total):
            rest, digit = divmod(rest, p)
            expected.append(digit)
        digits = search._candidate_digits(index, 1, total, p)[:, 0].tolist()
        # the rows left out are the zero digits above the index's top digit
        assert digits == expected[:len(digits)] and not any(expected[len(digits):])
        assert not digits or digits[-1]
        assert candidate_index(ln, candidate_code(ln, index)) == index


def test_batch_digits_match_the_row_by_row_reference():
    # the rows whose runs span the batch are written as two blocks; every
    # digit must equal the row-by-row decoder's, at the bottom, in the
    # middle and at the top of spaces past 2**63, and at batches that
    # straddle a multiple of a high run
    rng = random.Random(2026)
    rolled = 0
    for _ in range(3000):
        p = rng.choice([2, 3, 5, 7, 2**31 - 1, 2**61 - 1])
        entries = rng.randint(0, 40)
        space = p**entries
        count = min(space, rng.choice([1, 2, 3, 7, 256, 1000, rng.randint(1, 5000)]))
        run = p ** rng.randint(0, entries)
        start = rng.choice([0, rng.randrange(space - count + 1), space - count,
                            max(0, space - count - rng.randint(0, 3)),
                            min(space - count, max(0, run - rng.randint(0, count)))])
        got = search._candidate_digits(start, count, entries, p)
        want = candidate_digits_reference(start, count, entries, p)
        assert got.shape == want.shape and (got == want).all(), (start, count, entries, p)
        high = next(e for e in range(entries + 1) if p**e >= count)
        rolled += bool((got[high:, 0] != got[high:, -1]).any())
    assert rolled > 100, rolled


def test_candidate_index_digit_order_ignores_listing_order():
    # sessions listed 3, 1, 2 with session 2 of width 0, relays declared
    # zr before ar; q = 3 and T = 2 make every encoder 3 x 2 and every
    # decoder 2 x 3, so a transposed matrix would show
    p, q = 3, 3
    fm = FieldModulus(p)
    edges = [(u, v, identity(fm, q)) for u, v in (
        ("s1", "zr"), ("s3", "zr"), ("s2", "ar"), ("s1", "ar"),
        ("zr", "t1"), ("zr", "t3"), ("ar", "t2"), ("ar", "t1"),
    )]
    ln = detect_layers(network(
        p, q, ["t3", "zr", "s3", "s1", "ar", "t1", "s2", "t2"], edges,
        [(3, "s3", "t3", 1), (1, "s1", "t1", 1), (2, "s2", "t2", 0)],
    ))
    assert ln.horizon == 2
    expected = (
        [("C", 1, r, c) for r in range(3) for c in range(2)]
        + [("C", 3, r, c) for r in range(3) for c in range(2)]
        + [("F", "ar", r, c) for r in range(3) for c in range(3)]
        + [("F", "zr", r, c) for r in range(3) for c in range(3)]
        + [("D", 1, r, c) for r in range(2) for c in range(3)]
        + [("D", 3, r, c) for r in range(2) for c in range(3)]
    )
    assert free_entry_count(ln) == len(expected) == 42
    for e, place in enumerate(expected):
        code = candidate_code(ln, p**e)
        assert code.encoders[2].shape == (3, 0) and code.decoders[2].shape == (0, 3)
        ones = [
            (kind, key, r, c, int(v))
            for kind, mats in (("C", code.encoders), ("F", code.relays), ("D", code.decoders))
            for key, m in sorted(mats.items())
            for r, row in enumerate(m.to_rows())
            for c, v in enumerate(row)
            if v
        ]
        assert ones == [(*place, 1)], e


# ---------------------------------------------------------------------------
# exhaustive search
# ---------------------------------------------------------------------------


def test_exhaustive_finds_identity_edge_code_within_four_candidates():
    ln = identity_edge()
    result = exhaustive_search(ln, budget=16)
    assert result.outcome == "found"
    assert result.scanned <= 4
    assert result.index == 3
    assert result.code.encoders[1] == GfMatrix.from_rows(GF2, [[1]])
    assert result.code.decoders[1] == GfMatrix.from_rows(GF2, [[1]])


def test_exhaustive_reports_zero_gain_edge_as_exhausted():
    result = exhaustive_search(zero_edge(), budget=100)
    assert result.outcome == "exhausted"
    assert result.scanned == 4


def test_exhaustive_respects_budget():
    ln = zero_edge()
    result = exhaustive_search(ln, budget=3)
    assert result.outcome == "budget-exceeded"
    assert result.scanned == 3


def test_exhaustive_first_index_is_lexicographic_minimum():
    # scalar re-scan in enumeration order must agree on the first hit
    ln = identity_edge(p=2, q=1, width=1)
    result = exhaustive_search(ln, budget=100)
    first = next(
        i
        for i in range(candidate_count(ln))
        if is_solving(ln, candidate_code(ln, i))
    )
    assert result.index == first


def test_exhaustive_agrees_with_scalar_verdicts_on_small_instances():
    rng = random.Random(303)
    checked = 0
    while checked < 8:
        ln = random_layered_instance(
            rng, p_choices=(2,), q_choices=(1,), max_per_layer=2,
            horizon_choices=(1, 2), max_sessions=2, width_choices=(1,),
        )
        if candidate_count(ln) > 4096:
            continue
        checked += 1
        result = exhaustive_search(ln, budget=4096, chunk_size=512)
        scalar_hits = [
            i
            for i in range(candidate_count(ln))
            if is_solving(ln, candidate_code(ln, i))
        ]
        if scalar_hits:
            assert result.outcome == "found"
            assert result.index == scalar_hits[0]
        else:
            assert result.outcome == "exhausted"


def test_exhausted_verdict_survives_permuted_rescan():
    # independent confirmation of completeness: walking the space in a
    # shuffled order finds no solving code either
    ln = zero_edge()
    order = list(range(candidate_count(ln)))
    random.Random(1).shuffle(order)
    assert all(not is_solving(ln, candidate_code(ln, i)) for i in order)


def test_found_codes_solve_and_transpose_onto_reciprocal():
    rng = random.Random(55)
    found = 0
    while found < 5:
        ln = random_layered_instance(
            rng, p_choices=(2,), q_choices=(1, 2), max_per_layer=2,
            horizon_choices=(1,), max_sessions=1, width_choices=(1,),
        )
        if candidate_count(ln) > 1 << 16:
            continue
        result = exhaustive_search(ln, budget=1 << 16)
        if result.outcome != "found":
            continue
        found += 1
        assert is_solving(ln, result.code)
        rcode = transpose_code(ln, result.code)
        assert is_solving(reciprocal_layered(ln), rcode)


def test_butterfly_code_space_is_out_of_exhaustive_reach():
    # the classical butterfly embedding has far too many free entries to
    # enumerate; the search must say so rather than pretend completeness
    from helpers import butterfly_network

    ln = detect_layers(butterfly_network())
    assert free_entry_count(ln) > 70
    result = exhaustive_search(ln, budget=1000, chunk_size=500)
    assert result.outcome == "budget-exceeded"


def test_exhaustive_rejects_negative_budget():
    with pytest.raises(ValueError, match="budget"):
        exhaustive_search(identity_edge(), budget=-5)


def test_exhaustive_rejects_chunk_size_below_one():
    # a zero chunk size used to loop forever without advancing
    for chunk_size in (0, -3):
        with pytest.raises(ValueError, match="chunk_size"):
            exhaustive_search(identity_edge(), budget=10, chunk_size=chunk_size)


def test_zero_budget_scans_nothing():
    result = exhaustive_search(identity_edge(), budget=0)
    assert (result.outcome, result.scanned) == ("budget-exceeded", 0)


def test_every_budget_keeps_the_reference_answer():
    # budgets with fewer bits than the free entries, where the search
    # compares stand-ins instead of the powers past the budget
    instances = [identity_edge(p=3), identity_edge(p=2, q=2), zero_edge()]
    instances += [*layout_edge_cases(2, 1), *layout_edge_cases(3, 1)]
    cases = [(ln, range(candidate_count(ln) + 2)) for ln in instances]
    cases.append((detect_layers(two_unicast_network()), range(66)))
    for ln, budgets in cases:
        for budget in budgets:
            got = exhaustive_search(ln, budget=budget)
            want = exhaustive_search_reference(ln, budget)
            assert (got.outcome, got.index, got.scanned) == (want.outcome, want.index, want.scanned)


def test_huge_code_spaces_are_decided_without_building_their_size():
    # 6,000,000 free entries over GF(3): p**entries alone took seconds
    import time

    start = time.perf_counter()
    ln = detect_layers(network(3, 3_000_000, ["a", "b"], [], [(1, "a", "b", 1)]))
    result = exhaustive_search(ln)
    assert (result.outcome, result.scanned) == ("budget-exceeded", 1_000_000)
    assert time.perf_counter() - start < 0.5


def test_decoder_floor_stops_summing_once_it_passes_the_budget(monkeypatch):
    # q = width = 100,000 over GF(3): the floor passes the budget at the
    # decoder's first row, yet one power was built for each of its rows
    power, calls = search._power, []
    monkeypatch.setattr(search, "_power", lambda *args: calls.append(args) or power(*args))
    ln = detect_layers(network(3, 100_000, ["a", "b"], [], [(1, "a", "b", 100_000)]))
    result = exhaustive_search(ln)
    assert (result.outcome, result.scanned) == ("budget-exceeded", 1_000_000)
    assert len(calls) < 10


def test_candidate_code_decodes_in_a_huge_space_without_building_its_size():
    # 2,000,000 free entries over GF(2^31 - 1): the power alone took 37.6 s
    import time

    p = 2**31 - 1
    ln = detect_layers(network(p, 1000, ["a", "b"], [], [(1, "a", "b", 1000)]))
    start = time.perf_counter()
    code = candidate_code(ln, 0)
    assert time.perf_counter() - start < 1.0
    assert code.encoders[1].shape == (1000, 1000) and code.encoders[1].is_zero()
    assert code.decoders[1].shape == (1000, 1000) and code.decoders[1].is_zero()
    with pytest.raises(ValueError, match="out of range"):
        candidate_code(ln, -1)


def test_candidate_code_refuses_a_code_over_the_dense_limit(monkeypatch):
    ln = identity_edge(p=2, q=2, width=1)
    entries = free_entry_count(ln)
    monkeypatch.setattr(gf_linalg, "MAX_DENSE_BYTES", 8 * entries)
    assert candidate_code(ln, 0).encoders[1].shape == (2, 1)
    monkeypatch.setattr(gf_linalg, "MAX_DENSE_BYTES", 8 * entries - 1)
    with pytest.raises(ValueError, match=f"a code of {entries} entries needs {8 * entries} bytes"):
        candidate_code(ln, 0)


def candidate_words(ln, entries):
    """The int64 entries one candidate of ``entries`` digits holds at once:
    with L the summed message length, a held q x L arrival per session and
    the larger of a q x L transmission and arrival at every node, or three
    q x L arrays and five L x (q + width) arrays of its elimination."""
    n = ln.base
    widths = [ln.message_length(s) for s in n.sessions]
    held = max(2 * len(n.nodes) * n.q, 3 * n.q + 5 * (n.q + max(widths, default=0)))
    return entries + sum(widths) * (len(n.sessions) * n.q + held)


def test_searches_refuse_a_candidate_over_the_dense_limit(monkeypatch):
    # one message symbol: the session's 2x1 held arrival, three more 2x1
    # arrays and five 1x3 arrays of its elimination, and a pair's 2 encoder
    # digits or a trial's 4 digits
    ln = identity_edge(p=2, q=2, width=1)
    assert candidate_words(ln, 0) == 2 + 3 * 2 + 5 * 3
    monkeypatch.setattr(gf_linalg, "MAX_DENSE_BYTES", 8 * 25 - 1)
    with pytest.raises(ValueError, match="one candidate needs 200 bytes, more than 199"):
        exhaustive_search(ln)
    with pytest.raises(ValueError, match="one candidate needs 216 bytes, more than 199"):
        random_search(ln, trials=1)


def many_sessions(count, q=4):
    """``count`` width-1 sessions s_k -> d_k over GF(2), each on its own
    identity edge: a search holds arrays of sessions**2 entries a candidate."""
    fm = FieldModulus(2)
    nodes = [f"{end}{k}" for k in range(count) for end in "sd"]
    edges = [(f"s{k}", f"d{k}", identity(fm, q)) for k in range(count)]
    sessions = [(k + 1, f"s{k}", f"d{k}", 1) for k in range(count)]
    return detect_layers(network(2, q, nodes, edges, sessions))


def test_search_batches_stay_within_the_dense_limit(monkeypatch):
    # a batch holds no more than MAX_DENSE_BYTES: the exhaustive search
    # propagates and eliminates 300 pairs past the decoder floor, the
    # random search 256 trials
    import tracemalloc

    ln = many_sessions(24)
    limit = 1 << 21
    assert 256 * 8 * candidate_words(ln, 0) > 4 * limit
    pairs = 2 ** ln._code_layout[1]
    budget = search._decoder_floor(ln, candidate_count(ln)) * pairs + 300
    monkeypatch.setattr(gf_linalg, "MAX_DENSE_BYTES", limit)
    for run in (lambda: exhaustive_search(ln, budget=budget),
                lambda: random_search(ln, trials=256)):
        tracemalloc.start()
        try:
            result = run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.code is None
        assert peak <= limit, (result, peak)


def test_merged_eliminations_stay_within_the_dense_limit(monkeypatch):
    # the whole space of a two-node network whose pairs every floor try
    # misses, so each batch is kept and eliminated with the ones before it
    ln = identity_edge(2, 4, 4)
    space = candidate_count(ln)
    want = exhaustive_search(ln, budget=space)
    assert (want.outcome, want.index) == ("found", 306713160)
    for limit in (1 << 20, 1 << 18):
        monkeypatch.setattr(gf_linalg, "MAX_DENSE_BYTES", limit)
        got, peak = traced_peak(lambda: exhaustive_search(ln, budget=space))
        assert (got.outcome, got.index, got.scanned) == (want.outcome, want.index, want.scanned)
        assert got.code == want.code
        assert peak <= 1.05 * limit, (limit, peak)


def eight_relays():
    """A width-0 session through 8 relays at q=16: 2,048 relay entries a pair."""
    p, q = 2, 16
    fm = FieldModulus(p)
    relays = [f"r{i}" for i in range(8)]
    edges = [("a", r, identity(fm, q)) for r in relays] + [(r, "b", identity(fm, q)) for r in relays]
    ln = detect_layers(network(p, q, ["a", *relays, "b"], edges, [(1, "a", "b", 0)]))
    assert free_entry_count(ln) == 8 * q * q
    return ln


def traced_peak(call):
    """``call()`` and the peak of the memory traced while it ran."""
    import tracemalloc

    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_exhaustive_batches_stay_within_the_dense_limit():
    # a batch of 2**16 pairs would hold 1 GiB of digits
    ln = eight_relays()
    result, peak = traced_peak(lambda: exhaustive_search(ln))
    assert (result.outcome, result.index) == ("found", 0)
    assert peak < 300 * 2**20


def test_batch_digits_stop_at_the_top_digit_of_the_batch():
    # a batch of 2**14 pairs writes 14 of its 2,048 digit rows, and only
    # the first relay holds any of them: one 256-entry stack of 32 MiB,
    # where every relay's stack took 256 MiB of digits in all
    ln = eight_relays()
    digits = search._candidate_digits(0, 2**14, free_entry_count(ln), 2)
    assert digits.shape == (14, 2**14)
    relays = search._stacks(ln, digits, "CF")["F"]
    assert relays["r0"].shape == (2**14, 16, 16)
    assert all(relays[f"r{i}"].shape == (16, 16) and not relays[f"r{i}"].any()
               for i in range(1, 8))
    result, peak = traced_peak(lambda: exhaustive_search(ln))
    assert (result.outcome, result.index) == ("found", 0)
    assert peak < 40 * 2**20


# ---------------------------------------------------------------------------
# batched kernel against the transfer-matrix path
# ---------------------------------------------------------------------------


def candidate_index(ln, code):
    """Inverse of candidate_code: the index whose digits spell the code."""
    blocks = {"C": code.encoders, "F": code.relays, "D": code.decoders}
    digits = [x for kind, shapes in ln._code_layout[0].items() for key in shapes
              for row in blocks[kind][key].to_rows() for x in row]
    p = ln.base.field.p
    return sum(d * p**k for k, d in enumerate(digits))


def scan_mask(ln, start, count, chunk):
    """The batched verdicts of candidates start .. start+count-1, chunk by chunk."""
    mask = np.zeros(count, dtype=bool)
    for lo in range(start, start + count, chunk):
        mask[lo - start + scan_chunk(ln, lo, min(chunk, start + count - lo))] = True
    return mask


def instance_with_sessions(rng, p, q, n_sessions):
    while True:
        ln = random_layered_instance(
            rng, p_choices=(p,), q_choices=(q,), horizon_choices=(1, 2),
            max_per_layer=3, max_sessions=n_sessions, width_choices=(1,),
        )
        if len(ln.base.sessions) == n_sessions:
            return ln


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_scan_mask_equals_per_candidate_verdicts(p, q):
    # small spaces are compared whole, larger ones in a window of 100
    # centred on a solving code where random sampling finds one; chunks of
    # 7 and 64 divide neither
    rng = random.Random(1000 * p + q)
    edge_cases = layout_edge_cases(p, q)

    def instances():
        for n_sessions in (1, 2, 3):
            for _ in range(20):
                ln = instance_with_sessions(rng, p, q, n_sessions)
                found = random_search(ln, trials=300, seed=rng.randrange(1000))
                if found.code:
                    break
            yield ln, found
        for ln in edge_cases:
            yield ln, random_search(ln, trials=300, seed=rng.randrange(1000))

    hits = 0
    for ln, found in instances():
        space = candidate_count(ln)
        if space <= 300:
            start, count = 0, space
        else:
            centre = candidate_index(ln, found.code) if found.code else rng.randrange(space)
            start, count = max(0, min(centre - 50, space - 100)), 100
        expected = np.array(
            [is_solving(ln, candidate_code(ln, i)) for i in range(start, start + count)]
        )
        for chunk in (7, 64):
            assert (scan_mask(ln, start, count, chunk) == expected).all()
        if ln is edge_cases[-1]:  # no source reaches session 2's destination
            assert not expected.any()
        hits += int(expected.sum())
        if count == space:
            first = np.flatnonzero(expected)
            for chunk in (7, 64):
                result = exhaustive_search(ln, budget=space, chunk_size=chunk)
                assert result.index == (int(first[0]) if first.size else None)
    assert hits > 0


def test_kernel_agrees_with_a_room_of_one_on_a_gf3_chunk(monkeypatch):
    # with room for one product between reductions, every q = 2 sum of the
    # kernel and the decoder checks is cut into single terms
    ln = identity_edge(p=3, q=2, width=2)
    space = candidate_count(ln)
    widths = record_product_widths(monkeypatch)
    whole = scan_mask(ln, 0, space, space)
    assert max(widths) == 2
    widths.clear()
    monkeypatch.setattr(gf_linalg, "_INT64_MAX", 2 + 2**2)
    cut = scan_mask(ln, 0, space, space)
    assert max(widths) == 1
    assert whole.any()
    assert (cut == whole).all()


def test_batched_hits_are_reverified(monkeypatch):
    # a hit the independent transfer-matrix check rejects is an error,
    # never a result
    monkeypatch.setattr(search, "is_solving", lambda ln, code: False)
    ln = identity_edge()
    with pytest.raises(RuntimeError, match="disagree at index 3"):
        exhaustive_search(ln, budget=16)
    with pytest.raises(RuntimeError, match="disagree at trial"):
        random_search(ln, trials=100, seed=0)


# ---------------------------------------------------------------------------
# random search
# ---------------------------------------------------------------------------


def test_random_search_matches_per_trial_reference():
    # batches of 256, 1,024, ... trials must replay the per-trial loop
    # exactly, including hits and trial counts that cross a batch boundary;
    # identity_edge(p=5, q=2, width=2) hits past trial 256 at seeds 0 to 2
    rng = random.Random(77)
    instances = [identity_edge(p=5), identity_edge(p=3, q=2, width=1), zero_edge(),
                 identity_edge(p=5, q=2, width=2)]
    while len(instances) < 7:
        ln = random_layered_instance(
            rng, p_choices=(2, 3), q_choices=(1, 2), horizon_choices=(1, 2),
            max_per_layer=2, max_sessions=2, width_choices=(1,),
        )
        if random_search(ln, trials=400, seed=1).outcome == "found":
            instances.append(ln)
    edge_cases = layout_edge_cases(2, 2)
    instances += edge_cases
    late_hits = 0
    for ln in instances:
        for seed in (0, 1, 2, 3):
            for trials in (1, 2, 3, 40, 256, 257, 400, 1280, 1281):
                got = random_search(ln, trials=trials, seed=seed)
                want = random_search_reference(ln, trials=trials, seed=seed)
                assert (got.outcome, got.index, got.scanned) == (
                    want.outcome, want.index, want.scanned
                )
                assert got.code == want.code
                assert ln is not edge_cases[-1] or got.outcome == "not-found"
                late_hits += got.outcome == "found" and got.index > 256
    assert late_hits > 0


@pytest.mark.parametrize("p", [2, 3, 5, 7, 2**31 - 1])
def test_random_search_draws_replay_randrange(monkeypatch, p):
    # one getrandbits call per batch replays randrange(p) entry by entry; the
    # values left over from one batch start the next
    for seed, most_words in ((0, search._DRAW_WORDS), (1, search._DRAW_WORDS), (2, 7)):
        # a cap of 7 words takes many rounds per call
        monkeypatch.setattr(search, "_DRAW_WORDS", most_words)
        want, rng = random.Random(seed), random.Random(seed)
        pending, got = np.zeros(0, dtype=np.int64), []
        for size in (1, 2, 3, 500, 4494):
            out = np.empty(size, dtype=np.int64)
            pending = search._randrange_fill(rng, p, out, pending)
            got += out.tolist()
        assert got == [want.randrange(p) for _ in range(5000)]
    monkeypatch.undo()
    drawn = []
    fill = search._randrange_fill

    def fill_spy(rng, p, out, pending):
        pending = fill(rng, p, out, pending)
        drawn.extend(out.tolist())
        return pending

    monkeypatch.setattr(search, "_randrange_fill", fill_spy)
    edge_cases = layout_edge_cases(p, 2)
    decided = edge_cases[-1]  # unreachable_destination
    for ln in (identity_edge(p), identity_edge(p, q=2, width=1), *edge_cases):
        entries = free_entry_count(ln)
        for seed in (0, 5, 9):
            # batches of 256 and 1,024 trials end at 256 and 1,280; 257 and
            # 1,281 cross into the next batch
            for trials in (1, 256, 257, 1280, 1281):
                drawn.clear()
                got = random_search(ln, trials=trials, seed=seed)
                want = random_search_reference(ln, trials=trials, seed=seed)
                assert (got.outcome, got.index, got.scanned) == (
                    want.outcome, want.index, want.scanned
                )
                assert got.code == want.code
                rng = random.Random(seed)
                assert drawn == [rng.randrange(p) for _ in range(len(drawn))]
                if ln is decided:  # no path of nonzero gains reaches d: nothing drawn
                    assert drawn == []
                else:
                    # every trial up to the end of the batch that decides
                    batch_end = next(end for end in (256, 1280, 5376) if end >= got.scanned)
                    assert len(drawn) == entries * min(trials, batch_end)


def test_searches_match_references_in_batches_of_a_few_candidates(monkeypatch):
    # a dense limit of three random-search candidates cuts every batch to
    # a few candidates: the draw order and the first hits must not depend on it
    batches = []
    arrivals = search._arrivals

    def arrivals_spy(ln, encoders, relays, count):
        batches.append(count)
        return arrivals(ln, encoders, relays, count)

    monkeypatch.setattr(search, "_arrivals", arrivals_spy)
    rng = random.Random(78)
    instances = [identity_edge(p=5), identity_edge(p=3, q=2, width=1), *layout_edge_cases(2, 2)]
    while len(instances) < 8:
        ln = random_layered_instance(
            rng, p_choices=(2, 3), q_choices=(1, 2), horizon_choices=(1, 2),
            max_per_layer=2, max_sessions=2, width_choices=(1,),
        )
        if candidate_count(ln) <= 1 << 12 and random_search(ln, trials=400, seed=1).code:
            instances.append(ln)
    hits_past_first_batch = 0
    for ln in instances:
        monkeypatch.setattr(gf_linalg, "MAX_DENSE_BYTES",
                            8 * 3 * candidate_words(ln, free_entry_count(ln)))
        space = candidate_count(ln)
        batches.clear()
        got, want = exhaustive_search(ln, budget=space), exhaustive_search_reference(ln, space)
        assert (got.outcome, got.index, got.scanned) == (want.outcome, want.index, want.scanned)
        assert got.code == want.code
        hits_past_first_batch += got.outcome == "found" and len(batches) > 1
        for seed in (0, 1, 2):
            got = random_search(ln, trials=257, seed=seed)
            want = random_search_reference(ln, trials=257, seed=seed)
            assert (got.outcome, got.index, got.scanned) == (want.outcome, want.index, want.scanned)
            assert got.code == want.code
        assert max(batches, default=0) <= 4
    assert hits_past_first_batch > 0


def test_random_search_finds_identity_edge_code_over_gf5():
    ln = identity_edge(p=5, q=1, width=1)
    result = random_search(ln, trials=1000, seed=42)
    assert result.outcome == "found"
    assert result.scanned == result.index
    assert is_solving(ln, result.code)


def test_random_search_zero_gain_never_finds():
    result = random_search(zero_edge(), trials=200, seed=7)
    assert result.outcome == "not-found"
    assert result.scanned == 200


def test_random_search_is_deterministic_per_seed():
    ln = identity_edge(p=3, q=1, width=1)
    a = random_search(ln, trials=500, seed=11)
    b = random_search(ln, trials=500, seed=11)
    assert a.outcome == b.outcome == "found"
    assert a.index == b.index
    assert a.code.encoders[1] == b.code.encoders[1]
    assert a.code.decoders[1] == b.code.decoders[1]
    # a search that ignored the seed would give every seed the same answer
    answers = {
        (r.index, r.code.encoders[1])
        for r in (random_search(ln, trials=500, seed=seed) for seed in range(11, 21))
    }
    assert len(answers) > 1


def test_transfer_grid_of_found_code_is_kronecker():
    ln = identity_edge(p=2, q=2, width=2)
    result = exhaustive_search(ln, budget=1 << 17)
    assert result.outcome == "found"
    assert transfer_matrices(ln, result.code).is_identity_delta()


def test_exhaustive_first_hit_on_full_two_unicast_space():
    # scans 6.7M of the 16.7M candidates for the bundled two-unicast
    # network; the first solving code is frozen, so any change to the
    # enumeration order or the batched evaluator shows up here
    ln = detect_layers(two_unicast_network())
    result = exhaustive_search(ln, budget=candidate_count(ln))
    assert result.outcome == "found"
    assert result.index == 6723942
    swap = GfMatrix.from_rows(GF2, [[0, 1], [1, 0]])
    assert result.code.encoders[1] == swap
    assert result.code.decoders[1] == swap
    assert result.code.relays["3"].is_identity()
    assert is_solving(ln, result.code)


def test_two_unicast_first_hit_needs_no_elimination(monkeypatch):
    # the first hit sits at the decoder floor, 6723942 = 102 * 2**16 + 39270,
    # so the floor decoders find it and no batch is eliminated
    def refuse(*args, **kwargs):
        raise AssertionError("eliminated")

    monkeypatch.setattr(search, "lowest_solutions", refuse)
    ln = detect_layers(two_unicast_network())
    result = exhaustive_search(ln, budget=2**23)
    assert (result.outcome, result.index, result.scanned) == ("found", 6723942, 6723943)
    assert is_solving(ln, result.code)


# ---------------------------------------------------------------------------
# growing batches
# ---------------------------------------------------------------------------


def diamond(gain_ad):
    """s -> a, b -> d at q = 2: 4,096 (encoder, relay) pairs and 16 decoders.
    With ``EXHAUSTED`` as the gain from a, every gain into d has rank 1
    and no code solves."""
    return detect_layers(parse_network(
        "p: 2\nq: 2\nnodes: s a b d\nedges:\n"
        "  s -> a gain [[1,0],[0,1]]\n  s -> b gain [[0,1],[1,0]]\n"
        f"  a -> d gain {gain_ad}\n  b -> d gain [[1,1],[0,0]]\n"
        "sessions:\n  1: s -> d width 1\n"
    ))


EXHAUSTED = "[[1,0],[0,0]]"


def spy_batches(monkeypatch):
    """Pair counts propagated and eliminated by each exhaustive batch."""
    seen = {"propagated": [], "eliminated": []}
    arrivals, lowest = search._arrivals, search.lowest_solutions

    def arrivals_spy(ln, encoders, relays, count):
        seen["propagated"].append(count)
        return arrivals(ln, encoders, relays, count)

    def lowest_spy(y, e, p):
        seen["eliminated"].append(len(y))
        return lowest(y, e, p)

    monkeypatch.setattr(search, "_arrivals", arrivals_spy)
    monkeypatch.setattr(search, "lowest_solutions", lowest_spy)
    return seen


def assert_matches_reference(ln, seen, budget=None, **kwargs):
    """The search, over the full space unless a budget is given, equals the
    reference; ``seen`` keeps its batches only."""
    budget = candidate_count(ln) if budget is None else budget
    want = exhaustive_search_reference(ln, budget)
    for counts in seen.values():
        counts.clear()
    got = exhaustive_search(ln, budget=budget, **kwargs)
    assert (got.outcome, got.index, got.scanned, got.code) == (
        want.outcome, want.index, want.scanned, want.code)
    return got


def test_an_early_hit_propagates_one_first_batch(monkeypatch):
    ln = diamond("[[1,0],[0,1]]")
    seen = spy_batches(monkeypatch)
    got = assert_matches_reference(ln, seen)
    assert got.outcome == "found" and got.index % 4096 < 256
    assert seen == {"propagated": [256], "eliminated": []}


def test_missed_batches_are_eliminated_together(monkeypatch):
    seen = spy_batches(monkeypatch)
    got = assert_matches_reference(diamond(EXHAUSTED), seen)
    assert (got.outcome, got.scanned) == ("exhausted", 65536)
    # one session, so one elimination over all three batches
    assert seen == {"propagated": [256, 1024, 2816], "eliminated": [4096]}


@pytest.mark.parametrize("trials, propagated", [(20, [20]), (1300, [256, 1024, 20])])
def test_random_search_grows_its_batches_like_the_scan(monkeypatch, trials, propagated):
    # no code solves the exhausted diamond, so every trial is drawn and
    # propagated: 256 candidates, then 4x the last
    ln = diamond(EXHAUSTED)
    want = random_search_reference(ln, trials, seed=2)
    seen = spy_batches(monkeypatch)
    got = random_search(ln, trials=trials, seed=2)
    assert (got.outcome, got.index, got.scanned, got.code) == (
        want.outcome, want.index, want.scanned, want.code)
    assert (got.outcome, seen["propagated"]) == ("not-found", propagated)


def test_chunk_size_caps_the_growing_batches(monkeypatch):
    seen = spy_batches(monkeypatch)
    assert_matches_reference(diamond(EXHAUSTED), seen, chunk_size=512)
    # the first batch is eliminated alone, since the next would not fit beside it
    assert seen["propagated"] == seen["eliminated"] == [256] + [512] * 7 + [256]


def test_a_merged_elimination_finds_a_hit_past_the_tries(monkeypatch):
    # d never receives coordinate 0, which every tried decoder reads, so
    # the hit 660489 = 20 * 2**15 + 5129 needs elimination; smaller chunk
    # sizes split the kept batches into several eliminations
    ln = detect_layers(parse_network(
        "p: 2\nq: 3\nnodes: s a d\nedges:\n  s -> a gain [[1,0,0],[0,1,0],[0,0,1]]\n"
        "  a -> d gain [[0,0,0],[0,1,0],[0,0,1]]\nsessions:\n  1: s -> d width 1\n"
    ))
    seen = spy_batches(monkeypatch)
    assert assert_matches_reference(ln, seen).index == 660489
    assert seen == {"propagated": [256, 1024, 4096, 16384, 11008], "eliminated": [2**15]}
    for chunk in (300, 4096):
        assert_matches_reference(ln, seen, chunk_size=chunk)


def second_row_edge():
    """s -> d at q = 3 with Y = [0, c0, 0]: 8 pairs, and decoder floor 1,
    D = [1,0,0], never solves; odd pairs solve at floor + 1, index 17."""
    return detect_layers(parse_network(
        "p: 2\nq: 3\nnodes: s d\nedges:\n  s -> d gain [[0,0,0],[1,0,0],[0,0,0]]\n"
        "sessions:\n  1: s -> d width 1\n"
    ))


def spy_solved(monkeypatch):
    """Calls of search._solved, one per decoder index tried on a batch."""
    calls, solved = [], search._solved

    def solved_spy(p, decoders, arrivals, count):
        calls.append(count)
        return solved(p, decoders, arrivals, count)

    monkeypatch.setattr(search, "_solved", solved_spy)
    return calls


@pytest.mark.parametrize("budget, result, calls", [
    (None, ("found", 17, 18), 3 + 2 + 6),
    (16, ("budget-exceeded", None, 16), 8),
], ids=["full-space", "budget-16"])
def test_batches_try_only_the_decoders_that_can_still_win(monkeypatch, budget, result, calls):
    # in the full space, pair 0 tries floor .. floor + 2 and pair 1 hits at
    # floor + 1, index 17, which only the floor can beat: pairs 2 to 7 try it
    # alone.  Below budget 16 = (floor + 1) * 8 every pair tries the floor alone
    seen = {"solved": spy_solved(monkeypatch)}
    got = assert_matches_reference(second_row_edge(), seen, budget=budget, chunk_size=1)
    assert (got.outcome, got.index, got.scanned) == result
    assert len(seen["solved"]) == calls


def test_each_batch_and_elimination_is_logged_at_debug(caplog, tmp_path):
    caplog.set_level(logging.DEBUG, logger="ldnc.search")
    exhaustive_search(diamond(EXHAUSTED))
    exhaustive_search(diamond("[[1,0],[0,1]]"))
    assert [r.getMessage() for r in caplog.records] == [
        "batch start=0 pairs=256 deferred",
        "batch start=256 pairs=1024 deferred",
        "batch start=1280 pairs=2816 deferred",
        "eliminate start=0 pairs=4096",
        "batch start=0 pairs=256 hit try=0",
    ]
    # odd pairs need decoder floor + 1, and once one has solved, later
    # pairs try the floor alone, which misses them all, and are dropped
    caplog.clear()
    assert exhaustive_search(second_row_edge(), chunk_size=1).index == 2 * 8 + 1
    assert [r.getMessage() for r in caplog.records] == [
        "batch start=0 pairs=1 deferred",
        "eliminate start=0 pairs=1",
        "batch start=1 pairs=1 hit try=1",
        *(f"batch start={cf} pairs=1 dropped" for cf in range(2, 8)),
    ]
    # the window narrows without a hit too: the diamond's floor is 6, and a
    # pair from 300 on can beat budget 9 * 4096 + 300 only at decoder 6, 7 or
    # 8, which its batch tries, so the third batch is dropped and the first
    # two are eliminated alone
    caplog.clear()
    assert_matches_reference(diamond(EXHAUSTED), {}, budget=9 * 4096 + 300)
    assert [r.getMessage() for r in caplog.records] == [
        "batch start=0 pairs=256 deferred",
        "batch start=256 pairs=1024 deferred",
        "batch start=1280 pairs=2816 dropped",
        "eliminate start=0 pairs=1280",
    ]
    # the records go to logging only: the CLI prints the same either way
    net = tmp_path / "diamond.net"
    net.write_text(serialize_network(diamond("[[1,0],[0,1]]").base))
    debug = CliRunner().invoke(main, ["search", str(net)])
    caplog.set_level(logging.WARNING, logger="ldnc.search")
    quiet = CliRunner().invoke(main, ["search", str(net)])
    assert (debug.exit_code, debug.output) == (quiet.exit_code, quiet.output)
    assert "batch" not in debug.output


def test_exhaustive_survives_huge_moduli(monkeypatch):
    # with q = 3 near the modulus cap, room is 2: matmul_mod sums each
    # three-term product as two chunks with a reduction between them; the
    # enumeration order stays the same and the result stays exact
    widths = record_product_widths(monkeypatch)
    big = 2**31 - 1
    ln = identity_edge(p=big, q=3, width=3)
    result = exhaustive_search(ln, budget=200)
    assert result.outcome == "budget-exceeded"
    assert result.scanned == 200
    # the identity code sits at a known index and verifies exactly
    index = sum(big**e for e in (0, 4, 8, 9, 13, 17))
    assert is_solving(ln, candidate_code(ln, index))
    assert max(widths) == 2
    # with q = 2 every product is one chunk
    widths.clear()
    assert is_solving(*single_edge_identity(p=big, q=2))
    assert max(widths) == 2
