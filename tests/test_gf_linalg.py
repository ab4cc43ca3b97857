import itertools
import random

import numpy as np
import pytest

from ldnc import gf_linalg
from ldnc.errors import ModulusMismatchError, ShapeMismatchError
from ldnc.gf_linalg import (
    FieldModulus,
    GfMatrix,
    as_shift_strength,
    block_embed,
    flip_matrix,
    identity,
    is_kronecker_delta_identity,
    mat_rank,
    matmul_mod,
    random_matrix,
    shift_matrix,
    zeros,
)

from helpers import record_product_widths

GF2 = FieldModulus(2)
GF3 = FieldModulus(3)
GF5 = FieldModulus(5)


def rows(field, data):
    return GfMatrix.from_rows(field, data)


# ---------------------------------------------------------------------------
# FieldModulus
# ---------------------------------------------------------------------------


def test_modulus_rejects_composites_and_out_of_range():
    for bad in (0, 1, 4, 9, 15, 2**31):
        with pytest.raises(ValueError):
            FieldModulus(bad)
    for bad in (2.0, "2", None):
        with pytest.raises(TypeError, match="must be an int"):
            FieldModulus(bad)
    FieldModulus(2)
    FieldModulus(2**31 - 1)  # prime, upper edge of the supported range


def test_inverse_exhaustive_small_fields():
    for field in (GF2, GF3, GF5, FieldModulus(7)):
        for a in range(1, field.p):
            assert a * field.inv(a) % field.p == 1
    with pytest.raises(ZeroDivisionError):
        GF5.inv(0)


# ---------------------------------------------------------------------------
# Addition
# ---------------------------------------------------------------------------


BIG = FieldModulus(2**31 - 1)


def equality_cases():
    """(a, b, equal) pairs: entry, shape and field differences, empty shapes
    and the largest modulus."""
    a = rows(GF3, [[1, 2, 0], [0, 1, 2]])
    big = [[2**31 - 2, 5, 0], [1, 2**31 - 3, 7]]
    return [
        (a, rows(GF3, [[1, 2, 0], [0, 1, 2]]), True),
        (a, rows(GF3, [[1, 2, 0], [0, 1, 1]]), False),
        (a, rows(GF3, [[1, 2], [0, 1]]), False),
        (a, rows(GF3, [[1, 0], [2, 1], [0, 2]]), False),
        (a, rows(GF5, [[1, 2, 0], [0, 1, 2]]), False),
        (zeros(GF2, 0, 3), zeros(GF2, 0, 3), True),
        (zeros(GF2, 0, 3), zeros(GF2, 3, 0), False),
        (zeros(GF2, 0, 3), zeros(GF3, 0, 3), False),
        (rows(BIG, big), rows(BIG, big), True),
        (rows(BIG, big), rows(BIG, [[2**31 - 2, 5, 0], [1, 2**31 - 3, 6]]), False),
    ]


@pytest.mark.parametrize("a, b, equal", equality_cases())
def test_equality_compares_field_shape_and_every_entry(a, b, equal):
    assert (a == b) is equal and (b == a) is equal
    assert (a != b) is (not equal) and (b != a) is (not equal)
    assert (a == a) is True and (a != a) is False
    if equal:
        assert hash(a) == hash(b)


def test_add_characteristic_two_cancellation():
    a = rows(GF2, [[1, 1], [0, 1]])
    b = rows(GF2, [[1, 0], [0, 1]])
    assert a + b == rows(GF2, [[0, 1], [0, 0]])


def test_add_zero_is_identity():
    rng = random.Random(1)
    for field in (GF2, GF3, GF5):
        a = random_matrix(field, 3, 4, rng)
        assert a + zeros(field, 3, 4) == a


def test_add_wraps_modulus():
    assert rows(GF3, [[2]]) + rows(GF3, [[2]]) == rows(GF3, [[1]])


def test_add_errors():
    with pytest.raises(ShapeMismatchError):
        rows(GF2, [[1]]) + rows(GF2, [[1, 0]])
    with pytest.raises(ModulusMismatchError):
        rows(GF2, [[1]]) + rows(GF3, [[1]])


# ---------------------------------------------------------------------------
# Multiplication
# ---------------------------------------------------------------------------


def test_mul_identity():
    rng = random.Random(2)
    for field in (GF2, GF3, GF5):
        a = random_matrix(field, 3, 3, rng)
        assert identity(field, 3) @ a == a
        assert a @ identity(field, 3) == a


def test_mul_shift_against_basis_vector():
    # The 3x3 down-shift of strength 2 drops a vector by one level.
    s = shift_matrix(GF2, 3, 2)
    e1 = rows(GF2, [[1], [0], [0]])
    assert s @ e1 == rows(GF2, [[0], [1], [0]])


def test_mul_flip_conjugation_matches_transpose_3x3():
    # Direct 3x3 computation: J * S * J equals the transposed shift.
    s = shift_matrix(GF2, 3, 1)
    j = flip_matrix(GF2, 3)
    conj = j @ s @ j
    assert conj == s.T
    assert conj == rows(GF2, [[0, 0, 1], [0, 0, 0], [0, 0, 0]])


def test_mul_errors():
    with pytest.raises(ShapeMismatchError):
        rows(GF2, [[1, 0]]) @ rows(GF2, [[1, 0]])
    with pytest.raises(ModulusMismatchError):
        rows(GF2, [[1]]) @ rows(GF3, [[1]])


def test_mul_large_modulus_uses_exact_arithmetic():
    # Inner products near the modulus cap would overflow int64 without the
    # arbitrary-precision fallback.
    field = FieldModulus(2**31 - 1)
    v = field.p - 1
    a = GfMatrix.from_rows(field, [[v] * 8])
    b = GfMatrix.from_rows(field, [[v]] * 8)
    expected = (8 * v * v) % field.p
    assert (a @ b)[0, 0] == expected


# ---------------------------------------------------------------------------
# matmul_mod, against explicit loops over Python integers
# ---------------------------------------------------------------------------

BIG_P = 2**31 - 1
# the primes on either side of the last p whose room is 3
ROOM_3_P, ROOM_2_P = 1753413037, 1753413059
MODULI = [2, 3, 65521, ROOM_3_P, ROOM_2_P, BIG_P]


@pytest.fixture(params=["shipped", "room-1"])
def int64_room(request, monkeypatch):
    """A function of p that leaves ``_INT64_MAX`` as shipped or lowers it
    so that p has a room of 1: every term is then its own chunk."""

    def set_room(p):
        if request.param == "room-1":
            monkeypatch.setattr(gf_linalg, "_INT64_MAX", (p - 1) + (p - 1) ** 2)

    return set_room


def loop_product(p, pairs):
    """The sum of a @ b over 2-D pairs, mod p, by explicit Python-int loops."""
    rows, cols = pairs[0][0].shape[0], pairs[0][1].shape[1]
    out = [[0] * cols for _ in range(rows)]
    for a, b in pairs:
        a, b = a.tolist(), b.tolist()
        for i in range(rows):
            for j in range(cols):
                out[i][j] += sum(a[i][t] * b[t][j] for t in range(len(b)))
    return [[x % p for x in row] for row in out]


def residues(rng, p, shape, worst=False):
    """Random residues biased to 0, 1 and p-1; all p-1 when ``worst``."""
    n = int(np.prod(shape))
    picks = [p - 1 if worst else rng.choice((0, 1, p - 1, rng.randrange(p))) for _ in range(n)]
    return np.array(picks, dtype=np.int64).reshape(shape)


@pytest.mark.parametrize("p", MODULI)
def test_matmul_mod_matches_python_integer_loops(p, int64_room):
    # single products of inner length 0 to 8 and multi-pair sums, on both
    # sides of every chunk boundary near the modulus cap and at a room of
    # 1, and on arrays past the small-array reduction
    int64_room(p)
    rng = random.Random(p)
    cases = [(k,) for k in range(9)] + [(1, 1), (2, 1), (1, 2), (2, 2, 2), (4, 0, 3), (3, 5)]
    for inners in cases:
        for worst in (False, True):
            for rows, cols in ((1, 1), (3, 2), (20, 17)):
                pairs = [
                    (residues(rng, p, (rows, k), worst), residues(rng, p, (k, cols), worst))
                    for k in inners
                ]
                got = matmul_mod(p, *pairs)
                assert got.dtype == np.int64 and got.shape == (rows, cols)
                assert got.tolist() == loop_product(p, pairs), (inners, worst, rows, cols)


@pytest.mark.parametrize("p", MODULI)
def test_matmul_mod_broadcasts_stacks_against_shared_operands(p, int64_room):
    # each pair stacks its left operand, its right one, both or neither;
    # entry i of the result takes entry i of every stacked operand, also
    # when the pairs' sum crosses a chunk boundary
    int64_room(p)
    rng = random.Random(10 * p + 1)
    batch, rows, cols = 4, 3, 2
    layouts = list(itertools.product((False, True), repeat=2))
    for inners in ((2,), (3,), (1, 2), (3, 1)):
        for sides in itertools.product(layouts, repeat=len(inners)):
            if not any(left or right for left, right in sides):
                continue
            for worst in (False, True):
                pairs = [
                    (residues(rng, p, (batch,) * left + (rows, k), worst),
                     residues(rng, p, (batch,) * right + (k, cols), worst))
                    for k, (left, right) in zip(inners, sides)
                ]
                got = matmul_mod(p, *pairs)
                assert got.shape == (batch, rows, cols)
                for i in range(batch):
                    plain = [(a[i] if a.ndim == 3 else a, b[i] if b.ndim == 3 else b)
                             for a, b in pairs]
                    assert got[i].tolist() == loop_product(p, plain), (inners, sides, i)


def test_matmul_mod_bound_is_inclusive(monkeypatch):
    # terms are summed whole while their inner lengths stay within room,
    # and only a pair wider than room alone is cut, into chunks of room.
    # Zero-row operands carry any inner length without storing an entry;
    # int8 ones keep numpy's byte count of inner lengths near 2**63 in range
    widths = record_product_widths(monkeypatch)

    def chunks(p, *inners):
        widths.clear()
        small = np.int8 if p == 2 else np.int64
        pairs = [(np.zeros((0, k), dtype=small), np.zeros((k, 0), dtype=small)) for k in inners]
        assert matmul_mod(p, *pairs).shape == (0, 0)
        return list(widths)

    assert chunks(BIG_P, 2) == [2]
    assert chunks(BIG_P, 3) == [2, 1]
    assert chunks(BIG_P, 1, 1) == [1, 1]
    assert chunks(BIG_P, 1, 2) == [1, 2]
    assert chunks(BIG_P, 1, 5) == [1, 2, 2, 1]
    assert chunks(ROOM_2_P, 3) == [2, 1]
    assert chunks(ROOM_3_P, 3) == [3]
    assert chunks(ROOM_3_P, 7) == [3, 3, 1]
    # at p = 2 room is 2**63 - 2: one more term starts a second chunk
    assert chunks(2, 2**63 - 2) == [2**63 - 2]
    assert chunks(2, 2**63 - 1) == [2**63 - 2, 1]
    assert chunks(2, 2**63 - 3, 1) == [2**63 - 3, 1]
    assert chunks(2, 2**63 - 2, 1) == [2**63 - 2, 1]


def test_matmul_mod_near_the_modulus_cap_stays_small():
    # at p = 2**31 - 1 a (16384, 4, 4) @ (16384, 4, 6) product is summed in
    # int64 chunks of two terms: its traced peak stays within a few copies
    # of the 3 MiB result
    import tracemalloc

    rng = np.random.default_rng(5)
    a = rng.integers(0, BIG_P, (16384, 4, 4), dtype=np.int64)
    b = rng.integers(0, BIG_P, (16384, 4, 6), dtype=np.int64)
    tracemalloc.start()
    try:
        got = matmul_mod(BIG_P, (a, b))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * got.nbytes == 4 * 3 * 2**20
    i = 1234
    assert got[i].tolist() == loop_product(BIG_P, [(a[i], b[i])])


# ---------------------------------------------------------------------------
# Transpose
# ---------------------------------------------------------------------------


def test_transpose_involution_and_row_column():
    rng = random.Random(3)
    a = random_matrix(GF5, 3, 5, rng)
    assert a.T.T == a
    r = rows(GF3, [[1, 2, 0]])
    assert r.T == rows(GF3, [[1], [2], [0]])


def test_transpose_of_shift_has_superdiagonal():
    # Transpose of the strength-1 4x4 shift has its ones on the third
    # superdiagonal.
    t = shift_matrix(GF2, 4, 1).T
    expected = np.zeros((4, 4), dtype=int)
    expected[0, 3] = 1
    assert t.to_rows() == expected.tolist()


def test_transpose_product_rule():
    rng = random.Random(4)
    for field in (GF2, GF3, GF5):
        for _ in range(25):
            r, k, c = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
            a = random_matrix(field, r, k, rng)
            b = random_matrix(field, k, c, rng)
            assert (a @ b).T == b.T @ a.T


# ---------------------------------------------------------------------------
# Shift matrices
# ---------------------------------------------------------------------------


def test_shift_full_strength_is_identity():
    assert shift_matrix(GF2, 5, 5) == identity(GF2, 5)


def test_shift_zero_strength_annihilates():
    assert shift_matrix(GF2, 5, 0) == zeros(GF2, 5, 5)


def test_shift_displayed_pattern():
    assert shift_matrix(GF2, 3, 2).to_rows() == [[0, 0, 0], [1, 0, 0], [0, 1, 0]]


def test_shift_strength_out_of_range():
    with pytest.raises(ValueError):
        shift_matrix(GF2, 3, 4)
    with pytest.raises(ValueError):
        shift_matrix(GF2, 3, -1)
    with pytest.raises(ValueError, match="vector length"):
        shift_matrix(GF2, 0, 0)


def _subdiagonal_power(field, q, k):
    # Independent construction of the k-th power of the basic down-shift:
    # ones at (i + k, i), empty once k >= q.
    arr = np.zeros((q, q), dtype=np.int64)
    for i in range(q - k if k < q else 0):
        arr[i + k, i] = 1
    return GfMatrix(field, arr)


def test_shift_products_compose_exhaustively():
    for q in range(1, 6):
        for g1 in range(q + 1):
            for g2 in range(q + 1):
                prod = shift_matrix(GF3, q, g1) @ shift_matrix(GF3, q, g2)
                assert prod == _subdiagonal_power(GF3, q, (q - g1) + (q - g2))


# ---------------------------------------------------------------------------
# Flip matrices
# ---------------------------------------------------------------------------


def test_flip_pattern_and_involution():
    assert flip_matrix(GF2, 2).to_rows() == [[0, 1], [1, 0]]
    for q in range(1, 6):
        j = flip_matrix(GF3, q)
        assert j @ j == identity(GF3, q)
    with pytest.raises(ValueError, match="vector length"):
        flip_matrix(GF2, 0)


def test_flip_reverses_vectors():
    j = flip_matrix(GF5, 3)
    v = rows(GF5, [[1], [2], [3]])
    assert j @ v == rows(GF5, [[3], [2], [1]])


def test_flip_conjugation_equals_transpose_exhaustive():
    for q in range(1, 9):
        j = flip_matrix(GF2, q)
        for g in range(q + 1):
            s = shift_matrix(GF2, q, g)
            assert j @ s @ j == s.T


# ---------------------------------------------------------------------------
# Block embedding
# ---------------------------------------------------------------------------


def test_block_embed_smallest_case():
    e = block_embed(identity(GF2, 1), 1, 1)
    assert e.shape == (3, 3)
    expected = [[0, 0, 0], [0, 0, 0], [1, 0, 0]]
    assert e.to_rows() == expected


def test_block_embed_of_shift_is_shift():
    e = block_embed(shift_matrix(GF2, 3, 1), 3, 1)
    assert e.shape == (9, 9)
    assert as_shift_strength(e) is not None


def test_block_embed_zero_is_zero():
    assert block_embed(zeros(GF3, 2, 2), 2, 2).is_zero()


@pytest.mark.parametrize(
    "m, zero",
    [
        (zeros(GF3, 2, 2), True),
        (rows(GF3, [[0, 0], [0, 2]]), False),
        (rows(GF5, [[4]]), False),
        (identity(GF2, 2), False),
        (zeros(GF2, 0, 3), True),
        (zeros(GF5, 3, 0), True),
    ],
)
def test_is_zero_holds_exactly_for_matrices_without_a_nonzero_entry(m, zero):
    assert m.is_zero() is zero


def test_block_embed_places_product_in_bottom_band():
    rng = random.Random(5)
    q, horizon = 2, 2
    a = random_matrix(GF5, q, q, rng)
    x = random_matrix(GF5, q, 1, rng)
    size = q * (horizon + 2)
    vec = np.zeros((size, 1), dtype=np.int64)
    vec[:q] = x.to_array()
    out = block_embed(a, q, horizon) @ GfMatrix(GF5, vec)
    assert out.to_array()[: size - q].tolist() == [[0]] * (size - q)
    assert out.to_array()[size - q:].tolist() == (a @ x).to_array().tolist()


def test_block_embed_dimension_check():
    with pytest.raises(ShapeMismatchError):
        block_embed(zeros(GF2, 2, 3), 2, 1)
    with pytest.raises(ValueError, match="horizon"):
        block_embed(zeros(GF2, 2, 2), 2, -1)


# ---------------------------------------------------------------------------
# Kronecker-delta identity grid
# ---------------------------------------------------------------------------


def test_kronecker_grid_accepts_identity_delta():
    grid = [
        [identity(GF2, 2), zeros(GF2, 3, 2)],
        [zeros(GF2, 2, 3), identity(GF2, 3)],
    ]
    assert is_kronecker_delta_identity(grid)


def test_kronecker_grid_rejects_offdiagonal_noise():
    grid = [
        [identity(GF2, 2), rows(GF2, [[0, 0], [1, 0], [0, 0]])],
        [zeros(GF2, 2, 3), identity(GF2, 3)],
    ]
    assert not is_kronecker_delta_identity(grid)


def test_kronecker_grid_rejects_scaled_identity():
    two_i = rows(GF3, [[2, 0], [0, 2]])
    grid = [[two_i]]
    assert not is_kronecker_delta_identity(grid)


def test_kronecker_grid_empty_diagonal_is_vacuous():
    grid = [[zeros(GF2, 0, 0)]]
    assert is_kronecker_delta_identity(grid)


def test_kronecker_grid_rejects_ragged_grids_and_non_square_diagonals():
    with pytest.raises(ShapeMismatchError, match="square"):
        is_kronecker_delta_identity([[identity(GF2, 1), zeros(GF2, 1, 1)]])
    with pytest.raises(ShapeMismatchError, match=r"\(0,0\) must be square"):
        is_kronecker_delta_identity([[zeros(GF2, 1, 2)]])


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


def test_rank_of_structured_matrices():
    assert mat_rank(identity(GF5, 4)) == 4
    assert mat_rank(zeros(GF5, 3, 2)) == 0
    assert mat_rank(shift_matrix(GF2, 4, 2)) == 2
    assert mat_rank(flip_matrix(GF3, 5)) == 5


def test_as_shift_strength_roundtrip_and_rejection():
    for q in range(1, 5):
        for g in range(q + 1):
            assert as_shift_strength(shift_matrix(GF3, q, g)) == g
    assert as_shift_strength(rows(GF2, [[1, 1], [0, 1]])) is None
    assert as_shift_strength(rows(GF2, [[1, 0, 0], [0, 1, 0]])) is None


def test_matrices_are_immutable_and_hashable():
    a = rows(GF2, [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        a.to_array()[0, 0] = 1
    assert hash(a) == hash(identity(GF2, 2))
    assert len({a, identity(GF2, 2)}) == 1
