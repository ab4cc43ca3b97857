"""Exact dense linear algebra over a prime field GF(p).

Matrices are immutable, value-semantic wrappers around integer arrays.
Every entry is kept as a canonical residue in ``[0, p)`` and every
operation reduces mod p, so results are exact for any supported modulus.
Instances never mutate after construction and may be shared freely
across threads.

Besides plain arithmetic the module provides the structured matrices
this package is built on:

* ``shift_matrix(field, q, strength)`` -- the q x q down-shift that
  drops a vector by ``q - strength`` levels (strength q is the
  identity, strength 0 annihilates),
* ``flip_matrix(field, q)`` -- the anti-diagonal permutation that
  reverses vector coordinates,
* ``block_embed(gain, q, horizon)`` -- the enlarged gain used when a
  network is unfolded over time, with the original gain placed in the
  bottom-left q x q block of a ``q*(horizon+2)`` square matrix.

:func:`matmul_mod` is the package's one matrix product: the sum of
``a @ b`` over pairs of plain or stacked residue arrays, reduced mod p,
in int64 with reductions between chunks of products.  ``GfMatrix``
multiplication, the batched propagation kernel of :mod:`ldnc.coding`
and the unfolding code all go through it.

:func:`row_reduce` brings a whole stack of matrices to reduced
row-echelon form at once; :func:`mat_rank` and :func:`lowest_solutions`,
the decoder solver of the exhaustive search, are built on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import isqrt
from typing import Sequence

import numpy as np

from .errors import ModulusMismatchError, ShapeMismatchError

_MAX_MODULUS = 2**31 - 1
_INT64_MAX = 2**63 - 1
# Up to this many entries one ``%`` reduces faster than ``x -= x // p * p``.
_SMALL_REDUCE = 256
# Largest dense int64 array set (in bytes) built from a compact description
MAX_DENSE_BYTES = 1 << 28


def dense_capacity(entries: int, what: str, error: type[Exception] = ValueError) -> int:
    """How many sets of ``entries`` int64 entries fit in ``MAX_DENSE_BYTES``;
    raises ``error("<what> <bytes> bytes, more than <MAX_DENSE_BYTES>")``
    when not even one does, so that the caller builds nothing."""
    need = 8 * entries
    if need > MAX_DENSE_BYTES:
        raise error(f"{what} {need} bytes, more than {MAX_DENSE_BYTES}")
    return MAX_DENSE_BYTES // max(need, 1)


def _is_prime(n: int) -> bool:
    return n == 2 or n > 2 and n % 2 == 1 and all(n % d for d in range(3, isqrt(n) + 1, 2))


@dataclass(frozen=True)
class FieldModulus:
    """A prime modulus p with its scalar inverse.

    Primality is checked by trial division at construction; p is capped
    at 2**31 - 1 so that a residue and two products of residues fit int64.
    """

    p: int

    def __post_init__(self) -> None:
        if not isinstance(self.p, int):
            raise TypeError(f"modulus must be an int, got {type(self.p).__name__}")
        if not 2 <= self.p <= _MAX_MODULUS:
            raise ValueError(f"modulus must be in [2, 2**31 - 1], got {self.p}")
        if not _is_prime(self.p):
            raise ValueError(f"modulus must be prime, got {self.p}")

    def inv(self, a: int) -> int:
        """Multiplicative inverse of a mod p."""
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.p})")
        return pow(a, -1, self.p)

    def __str__(self) -> str:
        return f"GF({self.p})"


class GfMatrix:
    """A dense rows x cols matrix over GF(p).

    Construct through :meth:`from_rows` or the module-level factories;
    the raw constructor expects an already-reduced numpy array and is
    meant for internal use.
    """

    __slots__ = ("field", "_a")

    def __init__(self, field: FieldModulus, array: np.ndarray):
        self.field = field
        array.setflags(write=False)
        self._a = array

    # -- construction ---------------------------------------------------

    @classmethod
    def from_rows(cls, field: FieldModulus, rows: Sequence[Sequence[int]]) -> "GfMatrix":
        """Build a matrix from a row-major grid; entries are reduced mod p.

        Entries outside the int64 range are reduced exactly, as Python
        integers.
        """
        try:
            arr = np.array(rows, dtype=np.int64)
        except OverflowError:
            arr = np.array(rows, dtype=object)
        except ValueError:
            arr = np.array(rows, dtype=object)  # ragged rows give a 1-D array
            if arr.ndim == 2:
                raise
        if arr.ndim != 2:
            raise ShapeMismatchError(f"expected a rectangular grid of rows, got ndim={arr.ndim}")
        return cls(field, np.mod(arr, field.p).astype(np.int64))

    # -- basic queries ---------------------------------------------------

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape  # type: ignore[return-value]

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return int(self._a[i, j])

    def to_rows(self) -> list[list[int]]:
        return self._a.tolist()

    def to_array(self) -> np.ndarray:
        """Read-only view of the underlying residue array."""
        return self._a

    def is_zero(self) -> bool:
        return not np.count_nonzero(self._a)

    def is_identity(self) -> bool:
        return self.rows == self.cols and bool(
            (self._a == np.eye(self.rows, dtype=np.int64)).all()
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GfMatrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.shape == other.shape
            and bool((self._a == other._a).all())
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.shape, self._a.tobytes()))

    def __repr__(self) -> str:
        return f"GfMatrix(p={self.field.p}, {self.to_rows()})"

    # -- arithmetic --------------------------------------------------------

    def _require_same_field(self, other: "GfMatrix") -> None:
        if self.field != other.field:
            raise ModulusMismatchError(
                f"mixed moduli: GF({self.field.p}) vs GF({other.field.p})"
            )

    def __add__(self, other: "GfMatrix") -> "GfMatrix":
        if not isinstance(other, GfMatrix):
            return NotImplemented
        self._require_same_field(other)
        if self.shape != other.shape:
            raise ShapeMismatchError(f"cannot add {self.shape} and {other.shape}")
        return GfMatrix(self.field, (self._a + other._a) % self.field.p)

    def __matmul__(self, other: "GfMatrix") -> "GfMatrix":
        if not isinstance(other, GfMatrix):
            return NotImplemented
        self._require_same_field(other)
        if self.cols != other.rows:
            raise ShapeMismatchError(f"cannot multiply {self.shape} by {other.shape}")
        return GfMatrix(self.field, matmul_mod(self.field.p, (self._a, other._a)))

    def transpose(self) -> "GfMatrix":
        return GfMatrix(self.field, np.ascontiguousarray(self._a.T))

    @property
    def T(self) -> "GfMatrix":
        return self.transpose()


def matmul_mod(p: int, *pairs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The sum of ``a @ b`` over one or more pairs, reduced mod p.

    Operands hold residues in [0, p) and are plain matrices or stacks
    that ``np.matmul`` broadcasts to one shape.  The sum runs in int64,
    which holds one residue plus ``room`` products of residues (2 at
    p = 2**31 - 1): terms are added whole while their inner lengths sum
    to at most ``room``, a pair wider than that alone is cut into chunks
    of ``room``, and the sum is reduced between chunks and at the end.
    """
    room = (_INT64_MAX - (p - 1)) // (p - 1) ** 2
    acc, held = None, 0
    for a, b in pairs:
        held += a.shape[-1]
        if held > room:  # reduce what is held, then add this pair in chunks of room
            if acc is not None:
                acc -= acc // p * p
            held = a.shape[-1]
            while held > room:
                term = np.matmul(a[..., :room], b[..., :room, :])
                acc = term if acc is None else acc + term
                acc -= acc // p * p
                a, b, held = a[..., room:], b[..., room:, :], held - room
        term = np.matmul(a, b)
        acc = term if acc is None else acc + term
    if acc.size <= _SMALL_REDUCE:
        return np.remainder(acc, p, out=acc)
    # same residues as %, several times faster on large int64 arrays
    acc -= acc // p * p
    return acc


# -- factories -------------------------------------------------------------


def zeros(field: FieldModulus, rows: int, cols: int) -> GfMatrix:
    return GfMatrix(field, np.zeros((rows, cols), dtype=np.int64))


def identity(field: FieldModulus, n: int) -> GfMatrix:
    return GfMatrix(field, np.eye(n, dtype=np.int64))


def shift_matrix(field: FieldModulus, q: int, strength: int) -> GfMatrix:
    """Down-shift gain for a channel of the given strength.

    Returns the q x q matrix with ones on the ``q - strength`` sub-diagonal:
    the full-strength channel (strength == q) is the identity and the dead
    channel (strength == 0) is the zero matrix.
    """
    if q < 1:
        raise ValueError(f"vector length must be >= 1, got {q}")
    if not 0 <= strength <= q:
        raise ValueError(f"channel strength must be in [0, {q}], got {strength}")
    return GfMatrix(field, np.eye(q, k=strength - q, dtype=np.int64))


def flip_matrix(field: FieldModulus, q: int) -> GfMatrix:
    """The q x q anti-diagonal permutation reversing vector coordinates."""
    if q < 1:
        raise ValueError(f"vector length must be >= 1, got {q}")
    return GfMatrix(field, np.ascontiguousarray(np.eye(q, dtype=np.int64)[::-1]))


def block_embed(gain: GfMatrix, q: int, horizon: int) -> GfMatrix:
    """Embed a q x q gain into the enlarged space used by time unfolding.

    The result is square of size ``q * (horizon + 2)``, zero except for the
    original gain in the bottom-left q x q corner.  The block sizes are
    (q, q*horizon, q): a transmitted vector carries its fresh top part, a
    state band of up to ``horizon`` stacked q-vectors, and a reserved
    bottom band that the embedded gains deliver into.
    """
    if gain.shape != (q, q):
        raise ShapeMismatchError(f"gain must be {q}x{q}, got {gain.shape}")
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    size = q * (horizon + 2)
    arr = np.zeros((size, size), dtype=np.int64)
    arr[size - q:, :q] = gain.to_array()
    return GfMatrix(gain.field, arr)


def random_matrix(field: FieldModulus, rows: int, cols: int, rng: random.Random) -> GfMatrix:
    """Uniformly random matrix; deterministic given the supplied rng."""
    arr = np.array(
        [[rng.randrange(field.p) for _ in range(cols)] for _ in range(rows)],
        dtype=np.int64,
    ).reshape(rows, cols)
    return GfMatrix(field, arr)


# -- structured queries ------------------------------------------------------


def as_shift_strength(m: GfMatrix) -> int | None:
    """Return the channel strength if ``m`` is a shift gain, else None."""
    a = m.to_array()
    strength = int(np.count_nonzero(a))  # the only strength m can have
    if m.rows == m.cols >= 1 and (a == np.eye(m.rows, k=strength - m.rows, dtype=np.int64)).all():
        return strength
    return None


def _inverse_mod(x: np.ndarray, p: int) -> np.ndarray:
    """Inverses of an int64 array of nonzero residues, as x ** (p - 2) mod p."""
    result = np.ones_like(x)
    base = x.copy()
    e = p - 2
    while e:
        if e & 1:
            result = result * base % p
        base = base * base % p
        e >>= 1
    return result


def row_reduce(a: np.ndarray, p: int, pivot_cols: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row-echelon form of a stack of matrices over GF(p).

    ``a`` is a (batch, rows, cols) integer array of residues.  Pivots are
    taken in the first ``pivot_cols`` columns (default: all), left to
    right, each from the first row below the earlier pivots; every pivot
    is scaled to 1 and cleared from all other rows, and the remaining
    columns are carried along as right-hand sides.  Runs in int64:
    residues are below 2**31, so every product stays below 2**62.

    Returns the reduced stack and a (batch, pivot_cols) array holding the
    row of each column's pivot, or -1 where the column has none.
    """
    a = np.array(a, dtype=np.int64)
    batch, rows, cols = a.shape
    pivot_cols = cols if pivot_cols is None else pivot_cols
    pivot_row = np.full((batch, pivot_cols), -1, dtype=np.int64)
    rank = np.zeros(batch, dtype=np.int64)
    row_ids = np.arange(rows)
    for c in range(pivot_cols):
        found = (a[:, :, c] != 0) & (row_ids >= rank[:, None])
        has = found.any(axis=1)
        if not has.any():
            continue
        items = np.flatnonzero(has)
        r = rank[items]
        src = found[items].argmax(axis=1)
        top = a[items, src]
        a[items, src] = a[items, r]
        top = top * _inverse_mod(top[:, c], p)[:, None] % p
        block = a[items]
        factor = block[:, :, c]
        factor[np.arange(items.size), r] = 0
        block -= factor[:, :, None] * top[:, None, :]
        block %= p
        block[np.arange(items.size), r] = top
        a[items] = block
        pivot_row[items, c] = r
        rank[items] += 1
    return a, pivot_row


def mat_rank(m: GfMatrix) -> int:
    """Rank over GF(p) by Gaussian elimination (diagnostic helper)."""
    _, pivot_row = row_reduce(m.to_array()[np.newaxis], m.field.p)
    return int((pivot_row >= 0).sum())


def lowest_solutions(y: np.ndarray, e: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Solve X . Y = E over GF(p) for a stack of Y, with the lowest X.

    ``y`` is a (batch, n, width) array of residues and ``e`` one
    (rows, width) right-hand side shared by the batch.  Each row x of X
    solves x . Y = (its row of E) on its own.  Reading x as a base-p
    number with x[0] least significant, the lowest solution puts pivots
    on the least significant columns first and sets every free variable
    to 0: each pivot variable then depends only on free variables of
    higher significance, which are already at their minimum.

    Returns a (batch,) boolean array that says which systems are
    consistent, and the (batch, rows, n) solutions, zero where the
    system is inconsistent.
    """
    batch, n, width = y.shape
    rows = e.shape[0]
    if width == 0:
        return np.ones(batch, dtype=bool), np.zeros((batch, rows, n), dtype=np.int64)
    augmented = np.empty((batch, width, n + rows), dtype=np.int64)
    augmented[:, :, :n] = y.transpose(0, 2, 1)
    augmented[:, :, n:] = e.T
    reduced, pivot_row = row_reduce(augmented, p, n)
    rhs = reduced[:, :, n:]
    rank = (pivot_row >= 0).sum(axis=1)
    spare = np.arange(width) >= rank[:, None]
    consistent = ~(spare & rhs.any(axis=2)).any(axis=1)
    x = np.take_along_axis(rhs, np.maximum(pivot_row, 0)[:, :, None], axis=1)
    x[pivot_row < 0] = 0
    x[~consistent] = 0
    return consistent, x.transpose(0, 2, 1)


def is_kronecker_delta_identity(grid: Sequence[Sequence[GfMatrix]]) -> bool:
    """True iff every diagonal entry of the grid is an identity matrix and
    every off-diagonal entry is all-zero.

    Diagonal entries must be square; a scaled identity does not count.
    """
    n = len(grid)
    for row in grid:
        if len(row) != n:
            raise ShapeMismatchError("grid must be square")
    for l in range(n):
        for k in range(n):
            entry = grid[l][k]
            if l == k:
                if entry.rows != entry.cols:
                    raise ShapeMismatchError(
                        f"diagonal entry ({l},{k}) must be square, got {entry.shape}"
                    )
                if not entry.is_identity():
                    return False
            elif not entry.is_zero():
                return False
    return True
