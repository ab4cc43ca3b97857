"""Batched GF(p) elimination and the lowest-index solver, checked by brute force."""

import itertools
import random

import numpy as np
import pytest

from ldnc.errors import ShapeMismatchError
from ldnc.gf_linalg import FieldModulus, GfMatrix, lowest_solutions, mat_rank, row_reduce

BRUTE_CHUNK = 1 << 16


def span_rank(a: np.ndarray, p: int) -> int:
    """Rank as log_p of the number of distinct combinations of the rows."""
    rows = a.shape[0]
    coeffs = list(itertools.product(range(p), repeat=rows))
    combos = (np.array(coeffs, dtype=np.int64).reshape(len(coeffs), rows) @ a) % p
    return round(np.log(len({c.tobytes() for c in combos})) / np.log(p))


def brute_lowest(y: np.ndarray, e: np.ndarray, p: int):
    """Lowest-index X with X . y = e, scanning every X in index order.

    X is read row-major with X[0, 0] the least significant base-p digit,
    which is the order the decoders take inside a candidate index.
    """
    rows, n = e.shape[0], y.shape[0]
    total = p ** (rows * n)
    powers = p ** np.arange(rows * n, dtype=np.int64)
    for lo in range(0, total, BRUTE_CHUNK):
        idx = np.arange(lo, min(total, lo + BRUTE_CHUNK), dtype=np.int64)
        xs = (idx[:, None] // powers % p).reshape(idx.size, rows, n)
        products = (xs.reshape(idx.size * rows, n) @ y).reshape(idx.size, rows, y.shape[1])
        ok = (products % p == e).all(axis=(1, 2))
        if ok.any():
            return xs[int(ok.argmax())]
    return None


def systems(rng, p, n, rows):
    """(y, e) pairs: selectors and random right-hand sides, random,
    rank-deficient and zero y, consistent and inconsistent."""
    out = []
    for extra in (0, 1, 2):
        width = rows + extra
        selector = np.zeros((rows, width), dtype=np.int64)
        at = rng.randrange(extra + 1)
        selector[:, at:at + rows] = np.eye(rows, dtype=np.int64)
        rand_e = np.array([[rng.randrange(p) for _ in range(width)] for _ in range(rows)],
                          dtype=np.int64).reshape(rows, width)
        rand_y = np.array([[rng.randrange(p) for _ in range(width)] for _ in range(n)],
                          dtype=np.int64).reshape(n, width)
        scales = np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64)
        low_rank = np.outer(scales, rand_y[0]) % p  # every row a multiple of one
        for y in (rand_y, low_rank, np.zeros((n, width), dtype=np.int64)):
            for e in (selector, rand_e):
                out.append((y, e))
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_row_reduce_rank_matches_span_size(p):
    rng = random.Random(p)
    field = FieldModulus(p)
    for _ in range(60):
        r, c = rng.randint(0, 4), rng.randint(0, 4)
        data = [[rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(c)] for _ in range(r)]
        a = np.array(data, dtype=np.int64).reshape(r, c)
        assert mat_rank(GfMatrix(field, a)) == span_rank(a, p)


def test_row_reduce_gives_reduced_echelon_form_per_item():
    rng = random.Random(9)
    p = 7
    stack = np.array([[[rng.randrange(p) for _ in range(5)] for _ in range(4)] for _ in range(50)],
                     dtype=np.int64)
    stack[::3, :, 1] = 0  # some items without a pivot in column 1
    reduced, pivot_row = row_reduce(stack, p, 3)
    for a, red, piv in zip(stack, reduced, pivot_row):
        rank = int((piv >= 0).sum())
        assert rank == span_rank(a[:, :3], p)
        assert span_rank(red, p) == span_rank(a, p)
        assert (sorted(piv[piv >= 0]) == np.arange(rank)).all()
        for col, row in enumerate(piv):
            if row >= 0:
                assert red[row, col] == 1
                assert np.count_nonzero(red[:, col]) == 1
        assert not red[rank:, :3].any()


def test_row_reduce_handles_the_largest_modulus():
    p = 2**31 - 1
    rng = random.Random(5)
    a = np.array([[rng.randrange(1, p) for _ in range(3)] for _ in range(3)], dtype=np.int64)
    a[2] = (a[0] * 5 + a[1] * (p - 3)) % p
    reduced, pivot_row = row_reduce(a[np.newaxis], p)
    assert list(pivot_row[0]) == [0, 1, -1]
    assert not reduced[0, 2].any()
    assert mat_rank(GfMatrix(FieldModulus(p), a)) == 2


@pytest.mark.parametrize("p", [2, 3, 5])
def test_lowest_solutions_match_brute_force(p):
    rng = random.Random(100 + p)
    inconsistent = consistent = 0
    for n in (1, 2, 3):
        for rows in range(n + 1):
            cases = systems(rng, p, n, rows)
            if p ** (rows * n) > 100_000:
                cases = cases[:4]  # a full scan of 5**9 matrices takes about 0.6 s
            for y, e in cases:
                ok, x = lowest_solutions(np.stack([y, y]), e, p)
                want = brute_lowest(y, e, p)
                assert ok.tolist() == [want is not None] * 2
                if want is None:
                    inconsistent += 1
                    assert not x.any()
                else:
                    consistent += 1
                    assert (x[0] == want).all() and (x[1] == want).all()
    assert inconsistent > 0 and consistent > 0


def test_lowest_solutions_batch_items_are_independent():
    rng = random.Random(8)
    p = 3
    ys = np.array([[[rng.randrange(p) for _ in range(3)] for _ in range(2)] for _ in range(40)],
                  dtype=np.int64)
    e = np.array([[0, 1, 0]], dtype=np.int64)
    ok, x = lowest_solutions(ys, e, p)
    for y, got_ok, got in zip(ys, ok, x):
        want = brute_lowest(y, e, p)
        assert got_ok == (want is not None)
        if want is not None:
            assert (got == want).all()


def test_lowest_solutions_with_no_equations():
    ok, x = lowest_solutions(np.zeros((3, 2, 0), dtype=np.int64), np.zeros((1, 0), dtype=np.int64), 5)
    assert ok.all() and x.shape == (3, 1, 2) and not x.any()


def test_from_rows_reduces_entries_beyond_int64_exactly():
    huge = [2**63, -(2**64) - 1, 3**50, 10**40 + 7]
    for p in (5, 2**31 - 1):
        m = GfMatrix.from_rows(FieldModulus(p), [huge[:2], huge[2:]])
        assert m.to_rows() == [[huge[0] % p, huge[1] % p], [huge[2] % p, huge[3] % p]]
        assert m.to_array().dtype == np.int64


def test_from_rows_rejects_ragged_rows():
    for ragged in ([[1, 2], [3]], [[2**70, 1], [3]]):
        with pytest.raises(ShapeMismatchError):
            GfMatrix.from_rows(FieldModulus(5), ragged)
