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
exactly when D_k . Y_k = E_k, the selector of message k, which one
batched GF(p) elimination (:func:`~ldnc.gf_linalg.lowest_solutions`)
decides for a whole batch of pairs, together with the lowest such D_k.
The first solving index is the minimum of ``d_min * p**m + cf`` over the
solvable pairs.  A solving D_k has full row rank, so no index below
``floor * p**m`` can solve, where ``floor`` is the lowest decoder index
with every D_k of full rank: a budget at or below that bound is decided
without propagating anything, and the scan of pairs stops as soon as no
later pair can beat the best index found.

Both searches lay a batch out the same way: candidates become one
(entries, batch) int64 digit array, and every session is pushed through
the one propagation kernel of :mod:`ldnc.coding` at once, as the column
block of its message in one shared transmission.  :func:`random_search`
sends its sampled trials, decoders included, in batches of 1, 2, 4, ...
candidates and checks the drawn D_k . Y_k = E_k destination by
destination, only on the candidates that passed the earlier ones.
Every product, in the kernel and in the decoder checks, is one
:func:`~ldnc.gf_linalg.matmul_mod` call: int64 when the unreduced sum
fits it, Python integers otherwise, so the search is exact for every
modulus.  Every returned code is re-verified through the ordinary
transfer-matrix path before it is handed back.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .coding import LinearCode, _propagate, is_solving
from .gf_linalg import MAX_DENSE_BYTES, GfMatrix, lowest_solutions, matmul_mod
from .network import LayeredNetwork

DEFAULT_BUDGET = 1_000_000
_CHUNK = 1 << 16


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a code search.

    ``outcome`` is one of ``found``, ``exhausted``, ``budget-exceeded``
    (exhaustive) or ``found`` / ``not-found`` (random).  For exhaustive
    hits ``index`` is the candidate index; for random hits it is the
    1-based trial number.  ``scanned`` counts the candidates decided:
    index + 1 for an exhaustive hit and the bound min(space, budget)
    otherwise, or the trials drawn by a random search.
    """

    outcome: str
    code: LinearCode | None
    index: int | None
    scanned: int


def free_entry_count(ln: LayeredNetwork) -> int:
    """Number of free matrix entries a code for this network has."""
    return ln._code_layout[1]


def candidate_count(ln: LayeredNetwork) -> int:
    """Size of the full code space, p ** free_entry_count."""
    return ln.base.field.p ** free_entry_count(ln)


def _code_from_entries(ln: LayeredNetwork, slots, entries) -> LinearCode:
    fm = ln.base.field
    # a copy, so that no returned matrix keeps a whole batch alive
    digits = np.array(entries, dtype=np.int64)[:, np.newaxis]
    blocks: dict[str, dict] = {"C": {}, "D": {}, "F": {}}
    for (kind, key), stack in _stacks(slots, digits).items():
        blocks[kind][key] = GfMatrix(fm, stack[0])
    return LinearCode(
        network=ln, encoders=blocks["C"], decoders=blocks["D"], relays=blocks["F"]
    )


def candidate_code(ln: LayeredNetwork, index: int) -> LinearCode:
    """Decode a candidate index into its code (the enumeration contract)."""
    slots, total = ln._code_layout
    if not 0 <= index < ln.base.field.p ** total:
        raise ValueError(f"candidate index {index} out of range")
    entries = _candidate_digits(index, 1, total, ln.base.field.p)[:, 0]
    return _code_from_entries(ln, slots, entries)


def _candidate_digits(start: int, count: int, total_entries: int, p: int) -> np.ndarray:
    """Base-p digits of candidates start .. start+count-1, one row per entry.

    Digit e is constant over runs of p**e consecutive indices, so each row
    is written as repeated runs rather than divided out per candidate;
    digits above the largest index stay zero.
    """
    digits = np.zeros((total_entries, count), dtype=np.int64)
    top = start + count - 1
    run = 1
    for e in range(total_entries):
        if run > top:
            break
        offset = start % run
        first = (start // run) % p
        if run >= count:
            # at most two runs: the digit rolls over once inside the chunk
            split = min(run - offset, count)
            digits[e, :split] = first
            digits[e, split:] = (first + 1) % p
        else:
            runs = -(-(offset + count) // run)
            values = (first + np.arange(runs, dtype=np.int64)) % p
            digits[e] = np.repeat(values, run)[offset:offset + count]
        run *= p
    return digits


def _take(stack: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The given rows of a batch stack; the stack itself when all are kept."""
    return stack if rows.size == len(stack) else stack[rows]


def _stacks(slots, digits: np.ndarray) -> dict[tuple[str, object], np.ndarray]:
    """(batch, rows, cols) views of the given slots' matrices in (entries, batch) digits."""
    count = digits.shape[1]
    return {
        (slot.kind, slot.key): digits[slot.offset:slot.offset + slot.rows * slot.cols]
        .reshape(slot.rows, slot.cols, count)
        .transpose(2, 0, 1)
        for slot in slots
    }


def _arrivals(ln: LayeredNetwork, mats, count: int):
    """Yield (session, Y_k, E_k) for every session of nonzero width, in id order.

    Session k's encoder fills columns lo..hi of its source's transmission,
    so one propagation of the batch gives destination k the arrival
    Y_k = [Y_k1 ... Y_kn] (None when nothing reaches it), and a decoder
    D_k solves exactly when D_k . Y_k = E_k, the identity in columns
    lo..hi and zero elsewhere.  A 0 x q decoder has nothing to decode.
    """
    q = ln.base.q
    sessions = ln.base.sessions_sorted()
    cuts = list(accumulate((ln.message_length(s) for s in sessions), initial=0))
    width = cuts[-1]
    sent = {s.source: np.zeros((count, q, width), dtype=np.int64) for s in sessions}
    for s, lo, hi in zip(sessions, cuts, cuts[1:]):
        sent[s.source][:, :, lo:hi] = mats[("C", s.id)]
    arrived = _propagate(ln, sent, {v: mats[("F", v)] for v in ln.relay_nodes()})
    for s, lo, hi in zip(sessions, cuts, cuts[1:]):
        if hi > lo:
            yield s, arrived.get(s.destination), np.eye(hi - lo, width, lo, dtype=np.int64)


def _solving_mask(ln: LayeredNetwork, slots, digits: np.ndarray) -> np.ndarray:
    """Boolean solving mask of a batch of candidates given as (entries, batch) digits.

    The batch is propagated once through :func:`_arrivals`; destination by
    destination, the drawn D_k . Y_k = E_k is then checked only on the
    candidates that passed every earlier destination.
    """
    p = ln.base.field.p
    count = digits.shape[1]
    mats = _stacks(slots, digits)
    alive = np.arange(count)
    for s, y, target in _arrivals(ln, mats, count):
        if y is None:
            alive = alive[:0]
            break
        gamma = matmul_mod(p, (_take(mats[("D", s.id)], alive), _take(y, alive)))
        alive = alive[(gamma == target).all(axis=(1, 2))]
        if not alive.size:
            break
    ok = np.zeros(count, dtype=bool)
    ok[alive] = True
    return ok


def _verified(ln: LayeredNetwork, code: LinearCode, where: str) -> LinearCode:
    """Re-check a batched hit through the independent transfer-matrix path."""
    if not is_solving(ln, code):
        raise RuntimeError(f"batched scan and transfer-matrix check disagree at {where}")
    return code


def _decoder_floor(ln: LayeredNetwork, slots, pairs_entries: int) -> int | None:
    """Lowest decoder index d at which every D_k has full row rank.

    The lowest full-row-rank w x q matrix has row r = e_(w-1-r): its last,
    most significant row is the smallest nonzero row e_0, and each row
    above it the smallest row independent of those below.  Returns None
    when some session is wider than q, so that no decoder can solve.
    """
    p = ln.base.field.p
    floor = 0
    for slot in slots:
        if slot.kind != "D":
            continue
        if slot.rows > slot.cols:
            return None
        base = slot.offset - pairs_entries
        floor += sum(p ** (base + r * slot.cols + slot.rows - 1 - r) for r in range(slot.rows))
    return floor


def _batch_size(ln: LayeredNetwork, entries: int, limit: int) -> int:
    """Candidates per batch: at most ``limit``, and few enough that the
    batch's int64 digits (``entries`` a candidate) and its arrival and
    elimination arrays each stay within ``MAX_DENSE_BYTES``."""
    widths = [ln.message_length(s) for s in ln.base.sessions]
    per_candidate = max(entries, sum(widths) * (ln.base.q + max(widths, default=0)), 1)
    return max(1, min(limit, MAX_DENSE_BYTES // (8 * per_candidate)))


def _lowest_decoders(ln: LayeredNetwork, slots, pairs_entries, start, count):
    """(d, cf) of the lowest solving index among pairs start .. start+count-1.

    On the batch's arrivals from :func:`_arrivals`, the lowest D_k solving
    D_k . Y_k = E_k is found by batched elimination, session by session,
    on the pairs still solvable.  Returns None when no pair can solve.
    """
    p = ln.base.field.p
    digits = _candidate_digits(start, count, pairs_entries, p)
    mats = _stacks([slot for slot in slots if slot.kind != "D"], digits)
    alive = np.arange(count)
    solutions: list[np.ndarray] = []
    for _, y, target in _arrivals(ln, mats, count):
        if y is None:
            return None
        ok, x = lowest_solutions(_take(y, alive), target, p)
        alive = alive[ok]
        if not alive.size:
            return None
        solutions = [sol[ok] for sol in solutions] + [x[ok]]
    if not solutions:
        return 0, start
    # decoder digits, least significant first; lexsort keys on the last one
    # first and keeps ties in pair order
    dec = np.concatenate([x.reshape(alive.size, -1) for x in solutions], axis=1)
    best = int(np.lexsort(dec.T)[0])
    d = sum(int(v) * p**e for e, v in enumerate(dec[best]))
    return d, start + int(alive[best])


def exhaustive_search(
    ln: LayeredNetwork, budget: int = DEFAULT_BUDGET, chunk_size: int = _CHUNK
) -> SearchResult:
    """Find the first solving code in enumeration order.

    Returns ``found`` with the lexicographically first solving code,
    ``exhausted`` when the whole space fits within the budget and holds
    no solving code (so none exists at this vector length, horizon and
    width profile), or ``budget-exceeded`` when no index below the
    budget solves.  The (encoder, relay) pairs are scanned ``chunk_size``
    at a time, fewer when a batch's arrays would outgrow
    ``MAX_DENSE_BYTES``.  Raises ``ValueError`` for a negative budget or
    a chunk size below 1.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    slots, total_entries = ln._code_layout
    p = ln.base.field.p
    space = p**total_entries
    bound = min(space, budget)
    pairs_entries = total_entries - sum(s.rows * s.cols for s in slots if s.kind == "D")
    pairs = p**pairs_entries
    floor = _decoder_floor(ln, slots, pairs_entries)
    best = None
    if floor is not None and floor * pairs < bound:
        batch = _batch_size(ln, pairs_entries, chunk_size)
        start, stop = 0, min(pairs, bound - floor * pairs)
        # no pair from start on can give an index below floor * pairs + start
        while start < stop and (best is None or best >= floor * pairs + start):
            count = min(batch, stop - start)
            hit = _lowest_decoders(ln, slots, pairs_entries, start, count)
            if hit is not None:
                index = hit[0] * pairs + hit[1]
                best = index if best is None else min(best, index)
            start += count
    if best is not None and best < bound:
        code = _verified(ln, candidate_code(ln, best), f"index {best}")
        return SearchResult("found", code, best, best + 1)
    if bound == space:
        return SearchResult("exhausted", None, None, bound)
    return SearchResult("budget-exceeded", None, None, bound)


def random_search(ln: LayeredNetwork, trials: int, seed: int = 0) -> SearchResult:
    """Sample codes uniformly; deterministic given the seed.

    Entries are drawn in enumeration order, one candidate per trial, so
    equal seeds replay identical candidate sequences.  Trials are
    evaluated in batches of 1, 2, 4, ... up to the scan chunk size, or
    less when the batch's arrays would outgrow ``MAX_DENSE_BYTES``, so a
    search that hits early draws at most twice the trials it needs.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    slots, total_entries = ln._code_layout
    p = ln.base.field.p
    rng = random.Random(seed)
    drawn, size, most = 0, 1, _batch_size(ln, total_entries, _CHUNK)
    while drawn < trials:
        count = min(size, trials - drawn)
        size_entries = count * total_entries
        entries = np.fromiter(
            (rng.randrange(p) for _ in range(size_entries)), dtype=np.int64, count=size_entries
        )
        digits = entries.reshape(count, total_entries).T
        hits = np.flatnonzero(_solving_mask(ln, slots, digits))
        if hits.size:
            trial = drawn + int(hits[0]) + 1
            code = _code_from_entries(ln, slots, digits[:, hits[0]])
            return SearchResult("found", _verified(ln, code, f"trial {trial}"), trial, trial)
        drawn += count
        size = min(2 * size, most)
    return SearchResult("not-found", None, None, trials)
