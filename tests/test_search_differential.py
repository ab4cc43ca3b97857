"""The decoder-solving exhaustive search against the full-candidate scan.

``exhaustive_search`` scans only (encoder, relay) pairs and solves for the
decoders; ``exhaustive_search_reference`` evaluates every candidate index
in order.  Both must agree on outcome, index, scanned count and code for
every budget and chunk size.  The rule that no code can solve, messages
sourced or decoded at one node that are longer than q together, or a
destination nothing reaches, is checked here against both references,
on each network and on its reciprocal, which swaps sources and
destinations and so must get the same verdict.
"""

import itertools
import random
from collections import Counter

import numpy as np
import pytest

from ldnc import search
from ldnc.gf_linalg import FieldModulus, identity
from ldnc.network import detect_layers, network, reciprocal_layered
from ldnc.search import (
    _CHUNK,
    _FLOOR_TRIES,
    _decoder_floor,
    _undecodable,
    candidate_code,
    candidate_count,
    exhaustive_search,
    random_search,
)

from helpers import (
    exhaustive_search_reference,
    gf2_instance_family,
    random_layered_instance,
    random_search_reference,
    record_product_widths,
    shared_endpoint_family,
    shared_source,
    unreachable_destination,
)

MAX_SPACE = 1 << 16


def width_network(p, q, widths):
    """One identity edge per session; horizon 1, so D_k is widths[k] x q."""
    fm = FieldModulus(p)
    k = range(len(widths))
    return detect_layers(network(
        p, q, [f"s{i}" for i in k] + [f"d{i}" for i in k],
        [(f"s{i}", f"d{i}", identity(fm, q)) for i in k],
        [(i + 1, f"s{i}", f"d{i}", w) for i, w in zip(k, widths)],
    ))


def unreachable_instance():
    # message 2 cannot reach d2: its source s2 has no out-edge
    fm = FieldModulus(3)
    eye = identity(fm, 1)
    n = network(3, 1, ["s1", "s2", "d1", "d2"], [("s1", "d1", eye), ("s1", "d2", eye)],
                [(1, "s1", "d1", 1), (2, "s2", "d2", 1)])
    return detect_layers(n)


def instances():
    out = [ln for ln in gf2_instance_family(max_entries=20)[::45] if candidate_count(ln) <= MAX_SPACE]
    rng = random.Random(4040)
    for p in (3, 5):
        for n_sessions in (1, 2, 3) * 3:
            while True:
                ln = random_layered_instance(
                    rng, p_choices=(p,), q_choices=(1, 2), horizon_choices=(1, 2),
                    max_per_layer=2, max_sessions=n_sessions, width_choices=(1, 1, 0),
                )
                if len(ln.base.sessions) == n_sessions and candidate_count(ln) <= MAX_SPACE:
                    out.append(ln)
                    break
    # solvable ones, so that hits are compared too
    for p, q, widths in ((3, 1, (1,)), (3, 1, (1, 1)), (3, 2, (1, 1)), (3, 2, (2,)),
                         (3, 1, (0, 1)), (5, 1, (1,)), (5, 1, (1, 1, 1)), (5, 2, (1,))):
        out.append(width_network(p, q, widths))
    out.append(unreachable_instance())
    return out + [reciprocal_layered(ln) for ln in out]


def reaches(ln, session):
    seen, frontier = {session.source}, [session.source]
    while frontier:
        v = frontier.pop()
        for e in ln.base.out_edges(v):
            if e.dst not in seen:
                seen.add(e.dst)
                frontier.append(e.dst)
    return session.destination in seen


def test_decoder_solving_search_matches_full_candidate_scan():
    rng = random.Random(77)
    # a hit at the decoder floor or at one of the next decoder indices is
    # found by trying them; one further up needs elimination
    covered = {"found": 0, "exhausted": 0, "budget-exceeded": 0, "width0": 0,
               "unreachable": 0, "chunk1": 0, "p2": 0, "p3": 0, "p5": 0,
               "at_floor": 0, "near_floor": 0, "past_tries": 0}
    for ln in instances():
        space = candidate_count(ln)
        first = exhaustive_search_reference(ln, space)
        budgets = {0, 1, rng.randrange(space + 1), space}
        pairs = ln.base.field.p ** ln._code_layout[1]
        if first.outcome == "found":
            budgets |= {first.index, first.index + 1}
            above = first.index // pairs - _decoder_floor(ln, space)
            covered["at_floor" if not above else
                    "near_floor" if above < _FLOOR_TRIES else "past_tries"] += 1
        chunks = (7, 64, _CHUNK) + ((1,) if pairs <= 256 else ())
        covered["chunk1"] += 1 in chunks
        covered[f"p{ln.base.field.p}"] += 1
        covered["width0"] += any(s.width == 0 for s in ln.base.sessions)
        covered["unreachable"] += any(not reaches(ln, s) for s in ln.base.sessions if s.width)
        for budget in sorted(b for b in budgets if b <= space):
            want = exhaustive_search_reference(ln, budget)
            covered[want.outcome] += 1
            for chunk in chunks:
                got = exhaustive_search(ln, budget=budget, chunk_size=chunk)
                assert (got.outcome, got.index, got.scanned) == (
                    want.outcome, want.index, want.scanned
                ), (ln, budget, chunk)
                assert got.code == want.code
    assert min(covered.values()) > 0, covered


def shared_load(ln):
    """The largest sum of message lengths sourced or decoded at one node."""
    load = Counter()
    for s in ln.base.sessions:
        load[s.source] += ln.message_length(s)
        load[s.destination] += ln.message_length(s)
    return max(load.values())


def test_shared_endpoint_searches_match_references():
    # sessions that overfill a shared source or destination together are
    # decided at once; those that fill it exactly, or sit beside a width-0
    # session, are searched; both must give the references' answers
    covered = Counter()
    for ln in shared_endpoint_family():
        for net in (ln, reciprocal_layered(ln)):
            space = candidate_count(net)
            decided = _undecodable(net)
            overfilled = shared_load(net) > net.base.q
            assert decided == (overfilled or net.base._unreachable)
            for budget in sorted({min(space, 1 << 16), min(space, 1 << 8)}):
                got = exhaustive_search(net, budget=budget)
                want = exhaustive_search_reference(net, budget)
                assert (got.outcome, got.index, got.scanned, got.code) == (
                    want.outcome, want.index, want.scanned, want.code), (net, budget)
                assert not (decided and want.outcome == "found"), net
                covered["found"] += got.outcome == "found"
                covered["overfilled, whole space"] += overfilled and budget == space
            for seed in (0, 1):
                got = random_search(net, trials=60, seed=seed)
                want = random_search_reference(net, trials=60, seed=seed)
                assert (got.outcome, got.index, got.scanned, got.code) == (
                    want.outcome, want.index, want.scanned, want.code), (net, seed)
                covered["random found"] += got.outcome == "found"
            covered["exactly q, searched"] += shared_load(net) == net.base.q and not decided
            covered["width 0"] += any(s.width == 0 for s in net.base.sessions)
            covered[f"p{net.base.field.p} q{net.base.q} T{net.horizon}"] += 1
            covered[f"{len(net.base.sessions)} sessions"] += 1
    assert len(covered) == 13 and min(covered.values()) > 0, covered


def test_hits_near_the_decoder_floor_need_no_elimination(monkeypatch):
    # the decoder indices floor .. floor + _FLOOR_TRIES - 1 are tried on
    # every pair first, so a hit among them never reaches lowest_solutions
    def refuse(*args, **kwargs):
        raise AssertionError("eliminated")

    tried = {"at_floor": 0, "near_floor": 0}
    for ln in instances():
        space = candidate_count(ln)
        first = exhaustive_search_reference(ln, space)
        if first.outcome != "found":
            continue
        above = first.index // ln.base.field.p ** ln._code_layout[1] - _decoder_floor(ln, space)
        if above < _FLOOR_TRIES:
            with monkeypatch.context() as patched:
                patched.setattr(search, "lowest_solutions", refuse)
                got = exhaustive_search(ln, budget=space)
            assert (got.outcome, got.index, got.code) == ("found", first.index, first.code)
            tried["near_floor" if above else "at_floor"] += 1
    assert min(tried.values()) > 0, tried


# ---------------------------------------------------------------------------
# decoder floor
# ---------------------------------------------------------------------------


def full_row_rank(d, p):
    """(N,) mask: no nonzero combination of the rows of d[i] vanishes."""
    rows = d.shape[1]
    coeffs = np.array(list(itertools.product(range(p), repeat=rows))[1:], dtype=np.int64)
    if not coeffs.size:
        return np.ones(len(d), dtype=bool)
    combos = np.einsum("cr,nrq->ncq", coeffs, d) % p
    return combos.any(axis=2).all(axis=1)


def brute_floor(p, q, widths):
    """Lowest decoder index at which every D_k has full row rank, by scanning."""
    total = q * sum(widths)
    powers = p ** np.arange(total, dtype=np.int64)
    for lo in range(0, p**total, 1 << 16):
        idx = np.arange(lo, min(p**total, lo + (1 << 16)), dtype=np.int64)
        digits = idx[:, None] // powers % p
        ok = np.ones(idx.size, dtype=bool)
        at = 0
        for w in widths:
            ok &= full_row_rank(digits[:, at:at + w * q].reshape(idx.size, w, q), p)
            at += w * q
        if ok.any():
            return lo + int(ok.argmax())
    return None


@pytest.mark.parametrize("p", [2, 3, 5])
def test_decoder_floor_is_lowest_full_rank_decoder_index(p):
    checked = undecodable = 0
    for q in (1, 2, 3):
        profiles = [(w,) for w in range(q + 2)] + [(1, 1), (0, 1), (1, 0, 1), (q, 1), (2, 1)]
        for widths in profiles:
            if q * sum(widths) > 9:
                continue
            ln = width_network(p, q, widths)
            total = ln._code_layout[2]
            pairs_entries = total - q * sum(widths)
            # a session wider than q has no full-rank decoder: the rule
            # decides it, and the floor is then only a vacuous bound
            assert _undecodable(ln) == (max(widths) > q), (q, widths)
            if max(widths) > q:
                assert brute_floor(p, q, widths) is None
                assert isinstance(_decoder_floor(ln, p**total), int)
                undecodable += 1
                continue
            want = brute_floor(p, q, widths)
            assert _decoder_floor(ln, p**total) == want, (q, widths)
            # the floor index holds the lowest full-rank decoders: each D_k
            # is the identity with its rows reversed, which the search tries first
            decoders = candidate_code(ln, want * p**pairs_entries).decoders
            for i, w in enumerate(widths):
                assert decoders[i + 1].to_rows() == np.eye(w, q, dtype=int)[::-1].tolist()
            # a cap below the floor gives a stand-in above the cap
            for cap in range(min(want, 40) + 2):
                got = _decoder_floor(ln, cap)
                assert got == want if want <= cap else cap < got <= want, (q, widths, cap)
            checked += 1
    assert checked > 10 and undecodable == 3


def test_floor_bound_decides_without_propagating(monkeypatch):
    # below floor * p**m no candidate can solve, and neither a session wider
    # than q nor sessions that overfill a shared source or destination
    # together can be decoded: no case pushes anything through the network
    def refuse(*args, **kwargs):
        raise AssertionError("propagated")

    ln = width_network(2, 2, (1, 1))
    pairs_entries = ln._code_layout[2] - 2 * 2  # the decoders are two 1 x 2 matrices
    below = _decoder_floor(ln, candidate_count(ln)) * 2**pairs_entries
    monkeypatch.setattr(search, "_arrivals", refuse)
    result = exhaustive_search(ln, budget=below)
    assert (result.outcome, result.scanned) == ("budget-exceeded", below)
    # shared_source(3, 1) holds two width-1 sessions and one of width 0 at
    # one source, and its reciprocal at one destination
    shared = shared_source(3, 1)
    for undecodable in (width_network(3, 1, (2,)), shared, reciprocal_layered(shared)):
        space = candidate_count(undecodable)
        floor = _decoder_floor(undecodable, space)
        assert floor * 3**undecodable._code_layout[1] < space  # the floor leaves a scan
        result = exhaustive_search(undecodable, budget=space)
        assert (result.outcome, result.scanned) == ("exhausted", space)
    with pytest.raises(AssertionError, match="propagated"):
        exhaustive_search(ln, budget=below + 1)


def test_random_search_decides_undecodable_sessions_without_drawing(monkeypatch):
    # a message longer than q, messages that overfill a shared source or
    # destination together, or a destination that no path of nonzero gains
    # reaches leave no trial that can solve: every trial is decided at once,
    # as the per-trial reference decides them one by one
    instances = [width_network(3, 1, (2,)), width_network(2, 2, (1, 3)),
                 unreachable_destination(2, 2), shared_source(3, 1),
                 reciprocal_layered(shared_source(2, 1))]
    for ln in instances:
        for seed in (0, 1):
            for trials in (1, 2, 7, 40):
                got = random_search(ln, trials=trials, seed=seed)
                want = random_search_reference(ln, trials=trials, seed=seed)
                assert (got.outcome, got.code, got.scanned) == ("not-found", None, trials)
                assert (got.outcome, got.index, got.code, got.scanned) == (
                    want.outcome, want.index, want.code, want.scanned
                )

    def refuse(*args, **kwargs):
        raise AssertionError("drew or propagated")

    monkeypatch.setattr(search, "_randrange_fill", refuse)
    monkeypatch.setattr(search, "_arrivals", refuse)
    for ln in instances:
        result = random_search(ln, trials=10**9)
        assert (result.outcome, result.scanned) == ("not-found", 10**9)
        space = candidate_count(ln)
        result = exhaustive_search(ln, budget=space)
        assert (result.outcome, result.scanned) == ("exhausted", space)


def test_undecodable_reads_alike_on_the_reciprocal():
    # the reciprocal swaps sources and destinations and reverses every
    # path, so each verdict carries over; C3's family never overfills a
    # shared node, the shared-endpoint family often does
    grouped = Counter()
    for name, family in (("C3", gf2_instance_family(max_entries=20)),
                         ("shared endpoints", shared_endpoint_family())):
        for ln in family:
            verdict = _undecodable(ln)
            assert verdict == _undecodable(reciprocal_layered(ln)), ln
            alone = ln.base._unreachable or any(
                ln.message_length(s) > ln.base.q for s in ln.base.sessions)
            grouped[name] += verdict and not alone
    assert grouped["C3"] == 0 and grouped["shared endpoints"] >= 10, grouped


def test_wide_integer_kernel_finds_the_first_hit(monkeypatch):
    # with q = 3 near the modulus cap, room is 2, so the kernel sums its
    # three-term products in two chunks; every index below p**3 has a
    # zero decoder, p**3 a zero encoder, and p**3 + 1 is the unit encoder
    # with the unit decoder
    widths = record_product_widths(monkeypatch)
    big = 2**31 - 1
    ln = width_network(big, 3, (1,))
    pairs = big**3
    result = exhaustive_search(ln, budget=pairs + 2)
    assert (result.outcome, result.index, result.scanned) == ("found", pairs + 1, pairs + 2)
    assert result.code.encoders[1].to_rows() == [[1], [0], [0]]
    assert result.code.decoders[1].to_rows() == [[1, 0, 0]]
    assert max(widths) == 2
    widths.clear()
    result = exhaustive_search(ln, budget=pairs + 1, chunk_size=1)
    assert (result.outcome, result.scanned) == ("budget-exceeded", pairs + 1)
    assert max(widths) == 2  # the scan alone, with no hit to re-verify
