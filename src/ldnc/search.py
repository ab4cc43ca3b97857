"""Brute-force solvability search over all codes of a layered network.

Candidates enumerate every assignment of the free matrix entries: the
encoders in session order, then the relay matrices in node order, then
the decoders in session order, each matrix row-major, with the first
entry as the least significant base-p digit of the candidate index.
:func:`candidate_code` decodes an index into a code, so the enumeration
order is part of the public contract and results are reproducible.

:func:`exhaustive_search` scans candidates in contiguous chunks.  A chunk's
indices are decoded into one (entries, batch) digit array, whose slices
are the stacked encoders, relays and decoders, and every session is
pushed through the network by the one propagation kernel of
:mod:`ldnc.coding` (``np.matmul`` per edge and relay, reduced mod p);
:func:`random_search` feeds its sampled trials to the same kernel in
batches of 1, 2, 4, ... candidates.  The kernel runs in int64 when
:func:`~ldnc.coding._batched_sums_fit_int64` bounds every unreduced sum
below 2**63, and on exact Python integers (``object`` arrays) otherwise.
Each check of the transfer grid runs only on the candidates that passed
the earlier ones.  Chunks are independent, so they could be handed to
parallel workers; the reported code is always the one with the globally
smallest solving index, and any returned code is re-verified through the
ordinary transfer-matrix path before it is handed back.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .coding import (
    LinearCode,
    _batched_sums_fit_int64,  # noqa: F401  (the int64 bound, re-exported for tests)
    _kernel_dtype,
    _propagate,
    _reduce_mod,
    is_solving,
)
from .gf_linalg import GfMatrix
from .network import LayeredNetwork

DEFAULT_BUDGET = 1_000_000
_CHUNK = 1 << 16


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a code search.

    ``outcome`` is one of ``found``, ``exhausted``, ``budget-exceeded``
    (exhaustive) or ``found`` / ``not-found`` (random).  For exhaustive
    hits ``index`` is the candidate index; for random hits it is the
    1-based trial number.  ``scanned`` counts evaluated candidates.
    """

    outcome: str
    code: LinearCode | None
    index: int | None
    scanned: int


@dataclass(frozen=True)
class _Slot:
    kind: str  # "C", "F" or "D"
    key: object
    rows: int
    cols: int
    offset: int


def _layout(ln: LayeredNetwork) -> tuple[list[_Slot], int]:
    q = ln.base.q
    slots: list[_Slot] = []
    offset = 0

    def push(kind, key, rows, cols):
        nonlocal offset
        slots.append(_Slot(kind, key, rows, cols, offset))
        offset += rows * cols

    for s in ln.base.sessions_sorted():
        push("C", s.id, q, ln.message_length(s))
    for v in ln.relay_nodes():
        push("F", v, q, q)
    for s in ln.base.sessions_sorted():
        push("D", s.id, ln.message_length(s), q)
    return slots, offset


def free_entry_count(ln: LayeredNetwork) -> int:
    """Number of free matrix entries a code for this network has."""
    return _layout(ln)[1]


def candidate_count(ln: LayeredNetwork) -> int:
    """Size of the full code space, p ** free_entry_count."""
    return ln.base.field.p ** free_entry_count(ln)


def _code_from_entries(ln: LayeredNetwork, slots, entries) -> LinearCode:
    fm = ln.base.field
    encoders, decoders, relays = {}, {}, {}
    for slot in slots:
        block = np.array(
            entries[slot.offset:slot.offset + slot.rows * slot.cols], dtype=np.int64
        ).reshape(slot.rows, slot.cols)
        mat = GfMatrix(fm, block)
        if slot.kind == "C":
            encoders[slot.key] = mat
        elif slot.kind == "D":
            decoders[slot.key] = mat
        else:
            relays[slot.key] = mat
    return LinearCode(network=ln, encoders=encoders, decoders=decoders, relays=relays)


def candidate_code(ln: LayeredNetwork, index: int) -> LinearCode:
    """Decode a candidate index into its code (the enumeration contract)."""
    slots, total = _layout(ln)
    if not 0 <= index < ln.base.field.p ** total:
        raise ValueError(f"candidate index {index} out of range")
    p = ln.base.field.p
    entries = []
    for _ in range(total):
        entries.append(index % p)
        index //= p
    return _code_from_entries(ln, slots, entries)


def _candidate_digits(start: int, count: int, total_entries: int, p: int, dtype) -> np.ndarray:
    """Base-p digits of candidates start .. start+count-1, one row per entry.

    Digit e is constant over runs of p**e consecutive indices, so each row
    is written as repeated runs rather than divided out per candidate;
    digits above the largest index stay zero.
    """
    digits = np.zeros((total_entries, count), dtype=dtype)
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


def _solving_mask(ln: LayeredNetwork, slots, digits: np.ndarray, dtype) -> np.ndarray:
    """Boolean solving mask of a batch of candidates given as (entries, batch) digits.

    Each check of the transfer grid runs only on the candidates that passed
    every earlier one; a session's own (identity) entry is checked first,
    since it rejects the most.
    """
    p = ln.base.field.p
    count = digits.shape[1]
    mats = {
        (slot.kind, slot.key): digits[slot.offset:slot.offset + slot.rows * slot.cols]
        .reshape(slot.rows, slot.cols, count)
        .transpose(2, 0, 1)
        for slot in slots
    }
    sessions = ln.base.sessions_sorted()
    alive = np.arange(count)
    for sl in sessions:
        wl = ln.message_length(sl)
        sent = {sl.source: _take(mats[("C", sl.id)], alive)}
        relays = {v: _take(mats[("F", v)], alive) for v in ln.relay_nodes()}
        arrived = _propagate(ln, sent, relays, dtype)
        passed = np.arange(alive.size)
        for sk in (sl, *(s for s in sessions if s is not sl)):
            wk = ln.message_length(sk)
            if sk is sl:
                target = np.eye(wk, wl, dtype=np.int64)
            else:
                target = np.zeros((wk, wl), dtype=np.int64)
            y = arrived.get(sk.destination)
            if y is None:
                if target.any():
                    passed = passed[:0]
            else:
                gamma = np.matmul(
                    _take(mats[("D", sk.id)], alive[passed]), _take(y, passed)
                )
                passed = passed[(_reduce_mod(gamma, p) == target).all(axis=(1, 2))]
            if not passed.size:
                break
        alive = alive[passed]
        if not alive.size:
            break
    ok = np.zeros(count, dtype=bool)
    ok[alive] = True
    return ok


def _scan_chunk(ln: LayeredNetwork, slots, total_entries, start, count, dtype) -> np.ndarray:
    """Boolean solving mask for candidates start .. start+count-1."""
    digits = _candidate_digits(start, count, total_entries, ln.base.field.p, dtype)
    return _solving_mask(ln, slots, digits, dtype)


def _verified(ln: LayeredNetwork, code: LinearCode, where: str) -> LinearCode:
    """Re-check a batched hit through the independent transfer-matrix path."""
    if not is_solving(ln, code):
        raise RuntimeError(f"batched scan and transfer-matrix check disagree at {where}")
    return code


def exhaustive_search(
    ln: LayeredNetwork, budget: int = DEFAULT_BUDGET, chunk_size: int = _CHUNK
) -> SearchResult:
    """Scan codes in enumeration order for the first solving one.

    Returns ``found`` with the lexicographically first solving code,
    ``exhausted`` when the whole space fits within the budget and holds
    no solving code (so none exists at this vector length, horizon and
    width profile), or ``budget-exceeded`` when the scan was truncated.
    Raises ``ValueError`` for a negative budget or a chunk size below 1.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    slots, total_entries = _layout(ln)
    dtype = _kernel_dtype(ln)
    space = ln.base.field.p ** total_entries
    bound = min(space, budget)
    start = 0
    while start < bound:
        count = min(chunk_size, bound - start)
        hits = np.flatnonzero(_scan_chunk(ln, slots, total_entries, start, count, dtype))
        if hits.size:
            index = start + int(hits[0])
            code = _verified(ln, candidate_code(ln, index), f"index {index}")
            return SearchResult("found", code, index, index + 1)
        start += count
    if bound == space:
        return SearchResult("exhausted", None, None, bound)
    return SearchResult("budget-exceeded", None, None, bound)


def random_search(ln: LayeredNetwork, trials: int, seed: int = 0) -> SearchResult:
    """Sample codes uniformly; deterministic given the seed.

    Entries are drawn in enumeration order, one candidate per trial, so
    equal seeds replay identical candidate sequences.  Trials are
    evaluated in batches of 1, 2, 4, ... up to the scan chunk size, so a
    search that hits early draws at most twice the trials it needs.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    slots, total_entries = _layout(ln)
    p = ln.base.field.p
    dtype = _kernel_dtype(ln)
    rng = random.Random(seed)
    drawn, size = 0, 1
    while drawn < trials:
        count = min(size, trials - drawn)
        size_entries = count * total_entries
        entries = np.fromiter(
            (rng.randrange(p) for _ in range(size_entries)), dtype=np.int64, count=size_entries
        )
        digits = entries.reshape(count, total_entries).T.astype(dtype, copy=False)
        hits = np.flatnonzero(_solving_mask(ln, slots, digits, dtype))
        if hits.size:
            trial = drawn + int(hits[0]) + 1
            code = _code_from_entries(ln, slots, digits[:, hits[0]].tolist())
            return SearchResult("found", _verified(ln, code, f"trial {trial}"), trial, trial)
        drawn += count
        size = min(2 * size, _CHUNK)
    return SearchResult("not-found", None, None, trials)
