"""Brute-force solvability search over all codes of a layered network.

Candidates enumerate every assignment of the free matrix entries: the
encoders in session order, then the relay matrices in node order, then
the decoders in session order, each matrix row-major, with the first
entry as the least significant base-p digit of the candidate index.
:func:`candidate_code` decodes an index into a code, so the enumeration
order is part of the public contract and results are reproducible.

:func:`exhaustive_search` never enumerates decoders.  With m encoder and
relay entries, a candidate index splits as ``d * p**m + cf``: cf numbers
the (encoder, relay) pairs and d the decoders.  Once a pair is fixed,
destination k receives Y_k = [Y_k1 ... Y_kn] and a decoder D_k solves
exactly when D_k . Y_k = E_k, the selector of message k.  No code solves
when the messages at one source, or at one destination, are longer than
q together, or when no path of nonzero gains reaches some d_k
(:func:`_undecodable`), and both searches decide these without drawing
or propagating.  A solving D_k has full row rank, so no index below
``floor * p**m`` solves, ``floor`` being the lowest decoder index with
every D_k of full rank: budgets at or below it end at once, and no pair
is scanned that cannot beat the best.  A batch of pairs tries at most
three useful decoder indices, those from the floor up that can still
put one of its pairs below the best index, one after another: the
first pair one solves gives the batch's lowest index.  The scan stops
when no index is useful, and keeps a batch that every try misses only
when useful indices remain past its tries; one batched GF(p)
elimination per session (:func:`~ldnc.gf_linalg.lowest_solutions`) over
the merged arrivals of kept batches finds the lowest solving D_k of
every pair, and the lowest index is the minimum of ``d_min * p**m + cf``
over the solvable pairs.

Both searches run one batch schedule and one batch step.  A batch of
256, 1,024, 4,096, ... candidates, (encoder, relay) pairs or random
trials, is one (entries, batch) int64 digit array, which exhaustive
search cuts off above the batch's top digit.  The step sends its
encoder and relay stacks once through the one propagation kernel,
:func:`ldnc.coding._arrivals`, which :func:`~ldnc.coding.simulate` runs
too: every session is the column block of its message in one shared
transmission, and each Y_k is all zero when nothing reaches d_k.  It
then checks decoder sets in turn, the floor tries or the drawn
decoders, D_k . Y_k = E_k destination by destination, each only on the
candidates that passed the earlier ones.
Every product, in the kernel and in the decoder checks, is one
:func:`~ldnc.gf_linalg.matmul_mod` call, which sums in int64 and
reduces between chunks of products before a sum could pass it, so the
search is exact for every modulus.  Every returned code is re-verified
through the ordinary transfer-matrix path before it is handed back.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass

import numpy as np

from .coding import LinearCode, _arrivals, is_solving
from .gf_linalg import GfMatrix, dense_capacity, lowest_solutions, matmul_mod
from .network import LayeredNetwork

DEFAULT_BUDGET = 1_000_000
_CHUNK = 1 << 16
# Mersenne Twister words one getrandbits call of random_search asks for, at most
_DRAW_WORDS = 1 << 14
# decoder indices from the floor up that exhaustive search tries before it
# solves: a try costs a small part of a solve, and misses sit near the floor
_FLOOR_TRIES = 3
# candidates in the first batch of either search, each later one 4x the
# last: a batch's fixed cost is that of propagating a few hundred of them
_FIRST_BATCH = 256
_log = logging.getLogger("ldnc.search")


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a code search.

    ``outcome`` is one of ``found``, ``exhausted``, ``budget-exceeded``
    (exhaustive) or ``found`` / ``not-found`` (random).  For exhaustive
    hits ``index`` is the candidate index; for random hits it is the
    1-based trial number.  ``scanned`` counts the candidates decided:
    index + 1 for an exhaustive hit and the bound min(space, budget)
    otherwise; for a random search the trials drawn, or all of them when
    no code can solve.
    """

    outcome: str
    code: LinearCode | None
    index: int | None
    scanned: int


def free_entry_count(ln: LayeredNetwork) -> int:
    """Number of free matrix entries a code for this network has."""
    return ln._code_layout[2]


def candidate_count(ln: LayeredNetwork) -> int:
    """Size of the full code space, p ** free_entry_count."""
    return ln.base.field.p ** free_entry_count(ln)


def _code_from_entries(ln: LayeredNetwork, entries) -> LinearCode:
    fm = ln.base.field
    # a copy, so that no returned matrix keeps a whole batch alive
    digits = np.array(entries, dtype=np.int64)[:, np.newaxis]
    blocks = {
        kind: {key: GfMatrix(fm, stack if stack.ndim == 2 else stack[0])
               for key, stack in mats.items()}
        for kind, mats in _stacks(ln, digits, "CFD").items()
    }
    return LinearCode(
        network=ln, encoders=blocks["C"], decoders=blocks["D"], relays=blocks["F"]
    )


def candidate_code(ln: LayeredNetwork, index: int) -> LinearCode:
    """Decode a candidate index into its code (the enumeration contract).

    Raises ``ValueError`` for an index outside the code space, or from
    ``gf_linalg.dense_capacity`` for a code over ``MAX_DENSE_BYTES``.
    """
    total = ln._code_layout[2]
    if not 0 <= index < _power(ln.base.field.p, total, index):
        raise ValueError(f"candidate index {index} out of range")
    dense_capacity(total, f"a code of {total} entries needs")
    entries = _candidate_digits(index, 1, total, ln.base.field.p)[:, 0]
    return _code_from_entries(ln, entries)


def _candidate_digits(start: int, count: int, total_entries: int, p: int) -> np.ndarray:
    """Base-p digits of candidates start .. start+count-1, one row per entry.

    Digit e is constant over runs of p**e consecutive indices, so each row
    is written as repeated runs rather than divided out per candidate, and
    the rows with runs of at least ``count``, which roll over at one index
    if at all, as two blocks.  The rows stop at the largest index's top
    digit, at most ``total_entries`` of them: every digit above it is zero.
    """
    top = start + count - 1
    rows, run = 0, 1
    while rows < total_entries and run <= top:
        rows, run = rows + 1, run * p
    digits = np.empty((rows, count), dtype=np.int64)
    run, e = 1, 0
    while e < rows and run < count:
        offset = start % run
        runs = -(-(offset + count) // run)
        values = ((start // run) % p + np.arange(runs, dtype=np.int64)) % p
        digits[e] = np.repeat(values, run)[offset:offset + count]
        run, e = run * p, e + 1
    split = min(run - start % run, count)
    for at, lo, hi in ((start, 0, split), (start + split, split, count))[:1 + (split < count)]:
        column, rest = [], at // run
        for _ in range(rows - e):
            rest, digit = divmod(rest, p)
            column.append(digit)
        digits[e:, lo:hi] = np.array(column, dtype=np.int64)[:, np.newaxis]
    return digits


def _take(stack: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The given rows of a batch stack; the stack itself when all are kept
    or when it is one matrix shared by the batch."""
    return stack if stack.ndim == 2 or rows.size == len(stack) else stack[rows]


def _stacks(ln: LayeredNetwork, digits: np.ndarray,
            kinds: str) -> dict[str, dict[object, np.ndarray]]:
    """(batch, rows, cols) views of the matrices of ``kinds``, consecutive
    in the code layout, cut in layout order from the first row of (entries,
    batch) digits and keyed by kind and then by key: ``"CF"`` cuts a
    pair's digits, ``"D"`` a decoder index's and ``"CFD"`` a candidate's.
    Digits past the last row are zero: a matrix made of them only is one
    (rows, cols) zero matrix shared by the batch, and the one matrix that
    straddles that row is a zero-padded copy."""
    (written, count), at = digits.shape, 0
    mats: dict[str, dict[object, np.ndarray]] = {kind: {} for kind in kinds}
    for kind in kinds:
        for key, (rows, cols) in ln._code_layout[0][kind].items():
            size = rows * cols
            if at >= written:
                mats[kind][key] = np.zeros((rows, cols), dtype=np.int64)
            else:
                view = digits[at:at + size]
                if at + size > written:
                    view = np.zeros((size, count), dtype=np.int64)
                    view[:written - at] = digits[at:]
                mats[kind][key] = view.reshape(rows, cols, count).transpose(2, 0, 1)
            at += size
    return mats


def _solved(p: int, decoders, arrivals, count: int) -> np.ndarray:
    """Indices of the ``count`` candidates with D_k . Y_k = E_k at every destination.

    ``arrivals`` come from :func:`~ldnc.coding._arrivals` and ``decoders``
    maps session ids to (count, len_k, q) stacks or to one shared matrix.
    Each destination checks only the candidates that passed the earlier
    ones.  E_k is the identity in session k's columns lo..hi of Y_k, zero
    elsewhere.  A 0 x q decoder has nothing to decode.
    """
    alive = np.arange(count)
    for s, y, lo, hi in arrivals:
        if hi == lo:
            continue
        target = np.eye(hi - lo, y.shape[2], lo, dtype=np.int64)
        gamma = matmul_mod(p, (_take(decoders[s.id], alive), _take(y, alive)))
        alive = alive[(gamma == target).all(axis=(1, 2))]
        if not alive.size:
            break
    return alive


def _verified(ln: LayeredNetwork, code: LinearCode, where: str) -> LinearCode:
    """Re-check a batched hit through the independent transfer-matrix path."""
    if not is_solving(ln, code):
        raise RuntimeError(f"batched scan and transfer-matrix check disagree at {where}")
    return code


def _power(p: int, e: int, cap: int) -> int:
    """p**e, or cap + 1 without building the power when e >= cap.bit_length().

    Such a power exceeds cap for every p >= 2, so every comparison with
    cap, and every sum or product of such stand-ins with factors >= 1,
    ends on the same side of cap as with the exact powers.
    """
    return p**e if e < cap.bit_length() else cap + 1


def _undecodable(ln: LayeredNetwork) -> bool:
    """No code can solve: the messages at one source, or at one destination,
    are longer than q together, too long for its one q-row transmission or
    arrival to map onto as the identity, or nothing reaches some d_k.  The
    reciprocal swaps sources and destinations, so it gets the same verdict."""
    load: dict[str, int] = {}
    for s in ln.base.sessions:
        for node in (s.source, s.destination):
            load[node] = load.get(node, 0) + ln.message_length(s)
    return max(load.values(), default=0) > ln.base.q or ln.base._unreachable


def _decoder_floor(ln: LayeredNetwork, cap: int) -> int:
    """Lowest decoder index d at which every D_k has full row rank, or
    a stand-in above ``cap`` when d exceeds it.

    A decoder index spells the code layout's ``D`` shapes alone, each
    row-major from ``base``, its offset past the decoders before it.  The
    lowest full-row-rank w x q matrix has row r = e_(w-1-r): its last,
    most significant row is the smallest nonzero row e_0, and each row
    above it the smallest row independent of those below.  It sees each
    D_k alone: :func:`_undecodable` decides messages that overfill q.
    The sum stops as soon as it passes ``cap``, so a later session is not
    looked at: either answer leaves nothing to scan.
    """
    p = ln.base.field.p
    floor = base = 0
    for rows, cols in ln._code_layout[0]["D"].values():
        for r in range(rows):
            floor += _power(p, base + r * cols + rows - 1 - r, cap)
            if floor > cap:
                return floor
        base += rows * cols
    return floor


def _batch_size(ln: LayeredNetwork, entries: int, limit: int) -> int:
    """Candidates per batch: at most ``limit``, and as many as
    ``gf_linalg.dense_capacity`` fits of what one candidate holds at once:
    its ``entries`` digits and, with L the summed message length, a q x L
    transmission and arrival at every node, a held q x L arrival per
    session and one L x (q + width) elimination array.  Raises
    ``ValueError`` when not even one candidate fits."""
    n, widths = ln.base, [ln.message_length(s) for s in ln.base.sessions]
    per_symbol = (2 * len(n.nodes) + len(n.sessions) + 1) * n.q + max(widths, default=0)
    per_candidate = max(entries + sum(widths) * per_symbol, 1)
    return min(limit, dense_capacity(per_candidate, "one candidate needs"))


def _batches(stop: int, most: int):
    """(start, count) of the batches that cover 0 .. stop-1 in order:
    ``_FIRST_BATCH`` candidates, each later batch 4x the last, at most ``most``."""
    start, size = 0, min(_FIRST_BATCH, most)
    while start < stop:
        count = min(size, stop - start)
        yield start, count
        start, size = start + count, min(4 * size, most)


def _first_solved(ln: LayeredNetwork, mats, decoder_sets, count: int):
    """Propagate a batch of ``count`` candidates once, its ``C`` and ``F``
    stacks from :func:`_stacks` in ``mats``, and check each decoder set of
    ``decoder_sets`` on it in turn with :func:`_solved`.  Returns ((j, i),
    None) for the first set j that solves some candidate and the lowest
    candidate i it solves, or (None, arrivals) when no set solves.
    """
    arrivals = list(_arrivals(ln, mats["C"], mats["F"], count))
    for j, decoders in enumerate(decoder_sets):
        hits = _solved(ln.base.field.p, decoders, arrivals, count)
        if hits.size:
            return (j, int(hits[0])), None
    return None, arrivals


def _eliminate(ln: LayeredNetwork, kept: list, pairs: int, best: int) -> int:
    """The lowest solving index d * pairs + cf among the pairs cf of
    ``kept``, consecutive (start, arrivals) batches, when below ``best``;
    ``best`` otherwise.  One batched elimination per session, on its
    arrivals merged, finds the lowest D_k . Y_k = E_k on the pairs still
    solvable."""
    p, start = ln.base.field.p, kept[0][0]
    alive = np.arange(sum(len(arrivals[0][1]) for _, arrivals in kept))
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("eliminate start=%d pairs=%d", start, alive.size)
    solutions: list[np.ndarray] = []
    for parts in zip(*(arrivals for _, arrivals in kept)):
        _, y, lo, hi = parts[0]
        if hi == lo:
            continue
        y = np.concatenate([part[1] for part in parts]) if len(parts) > 1 else y
        target = np.eye(hi - lo, y.shape[2], lo, dtype=np.int64)
        ok, x = lowest_solutions(_take(y, alive), target, p)
        alive = alive[ok]
        if not alive.size:
            return best
        solutions = [sol[ok] for sol in solutions] + [x[ok]]
    # decoder digits, least significant first; lexsort keys on the last one
    # first and keeps ties in pair order
    dec = np.concatenate([x.reshape(alive.size, -1) for x in solutions], axis=1)
    first = int(np.lexsort(dec.T)[0])
    d = sum(int(v) * p**e for e, v in enumerate(dec[first]))
    return min(best, d * pairs + start + int(alive[first]))


def exhaustive_search(
    ln: LayeredNetwork, budget: int = DEFAULT_BUDGET, chunk_size: int = _CHUNK
) -> SearchResult:
    """Find the first solving code in enumeration order.

    Returns ``found`` with the lexicographically first solving code,
    ``exhausted`` when the whole space fits within the budget and holds
    no solving code (so none exists at this vector length, horizon and
    width profile), or ``budget-exceeded`` when no index below the
    budget solves.  The (encoder, relay) pairs are scanned in batches of
    256, 1,024, 4,096, ... pairs, at most ``chunk_size`` and fewer when
    a batch's arrays would outgrow ``MAX_DENSE_BYTES``; pairs that every
    floor try misses are eliminated together, at most that many at once.
    Raises ``ValueError`` for a negative budget, a chunk size below 1, or
    a pair whose arrays alone would outgrow ``MAX_DENSE_BYTES`` once it
    has to be propagated.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    _, pairs_entries, total_entries = ln._code_layout
    p = ln.base.field.p
    # a power past the budget is never built: its stand-in from _power
    # lands on the same side of the budget in every test below
    space = _power(p, total_entries, budget)
    bound = min(space, budget)
    pairs = _power(p, pairs_entries, budget)
    floor = _decoder_floor(ln, budget)
    best = bound
    if floor * pairs < bound and not _undecodable(ln):
        most = _batch_size(ln, pairs_entries, chunk_size)
        kept = []  # (start, arrivals) of consecutive batches that every try missed
        for start, count in _batches(min(pairs, bound - floor * pairs), most):
            # kept pairs are eliminated together when this batch would not
            # fit beside them, and when the scan ends
            if kept and start - kept[0][0] + count > most:
                best, kept = _eliminate(ln, kept, pairs, best), []
            # decoder indices from the floor up that can still put a pair
            # from start on below best
            useful = -(-(best - start) // pairs) - floor
            if useful <= 0:
                break
            tries = min(_FLOOR_TRIES, useful)
            digits = _candidate_digits(floor, tries, total_entries - pairs_entries, p)
            tried = _stacks(ln, digits, "D")["D"]
            mats = _stacks(ln, _candidate_digits(start, count, pairs_entries, p), "CF")
            sets = ({k: d if d.ndim == 2 else d[j] for k, d in tried.items()} for j in range(tries))
            hit, arrivals = _first_solved(ln, mats, sets, count)
            # no index below floor * pairs solves and each decoder index adds
            # pairs, so the first solving try's first pair is the batch's lowest
            if hit is not None:
                best, kept = min(best, (floor + hit[0]) * pairs + start + hit[1]), []
            elif tries < useful:  # else no pair that every try missed can win
                kept.append((start, arrivals))
            if _log.isEnabledFor(logging.DEBUG):
                state = f"hit try={hit[0]}" if hit else (
                    "deferred" if tries < useful else "dropped")
                _log.debug("batch start=%d pairs=%d %s", start, count, state)
        if kept:
            best = _eliminate(ln, kept, pairs, best)
    if best < bound:
        code = _verified(ln, candidate_code(ln, best), f"index {best}")
        return SearchResult("found", code, best, best + 1)
    if bound == space:
        return SearchResult("exhausted", None, None, bound)
    return SearchResult("budget-exceeded", None, None, bound)


def _randrange_fill(
    rng: random.Random, p: int, out: np.ndarray, pending: np.ndarray
) -> np.ndarray:
    """Fill ``out`` with the next values of ``rng.randrange(p)``, in order,
    starting with the ``pending`` ones, and return those drawn beyond it.

    randrange(p) keeps the top k = p.bit_length() bits of one 32-bit
    Mersenne Twister word and draws again while they are p or more;
    ``rng.getrandbits(32 * m)`` returns the next m words, the first as the
    least significant.  Each round asks for the words that the values
    still missing take on average, plus 32 so that a small batch seldom
    needs a second round, and at most ``_DRAW_WORDS``, so that the
    temporaries stay small beside ``out``.
    """
    k = p.bit_length()
    have = min(pending.size, out.size)
    out[:have] = pending[:have]
    pending = pending[have:]
    while have < out.size:
        m = min(-(-((out.size - have) << k) // p) + 32, _DRAW_WORDS)
        words = np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), dtype="<u4")
        values = words >> (32 - k)
        values = values[values < p]
        take = min(values.size, out.size - have)
        out[have:have + take] = values[:take]
        have += take
        pending = values[take:]
    return pending


def random_search(ln: LayeredNetwork, trials: int, seed: int = 0) -> SearchResult:
    """Sample codes uniformly; deterministic given the seed.

    Entries are drawn in enumeration order, one candidate per trial, so
    equal seeds replay identical candidate sequences: the values of
    ``random.Random(seed).randrange(p)``, taken a batch at a time.  Trials are
    drawn and evaluated in batches of 256, 1,024, 4,096, ... up to the
    scan chunk size, or fewer when the batch's arrays would outgrow
    ``MAX_DENSE_BYTES``, so a search that hits within its first 256
    trials still draws 256 of them, or all of them when it has fewer.
    Raises ``ValueError`` for fewer than one trial and, unless
    :func:`_undecodable` rules the network out and nothing is drawn, before
    drawing anything when one candidate's arrays would outgrow ``MAX_DENSE_BYTES``.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if _undecodable(ln):
        return SearchResult("not-found", None, None, trials)
    total_entries = ln._code_layout[2]
    p = ln.base.field.p
    rng = random.Random(seed)
    most = _batch_size(ln, total_entries, _CHUNK)
    # values drawn for a batch beyond its entries start the next one
    pending = np.zeros(0, dtype=np.int64)
    for drawn, count in _batches(trials, most):
        entries = np.empty(count * total_entries, dtype=np.int64)
        pending = _randrange_fill(rng, p, entries, pending)
        digits = entries.reshape(count, total_entries).T
        mats = _stacks(ln, digits, "CFD")
        hit, _ = _first_solved(ln, mats, [mats["D"]], count)
        if hit is not None:
            trial = drawn + hit[1] + 1
            code = _code_from_entries(ln, digits[:, hit[1]])
            return SearchResult("found", _verified(ln, code, f"trial {trial}"), trial, trial)
    return SearchResult("not-found", None, None, trials)
